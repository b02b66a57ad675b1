"""The failure taxonomy: every way a campaign cell can go wrong.

The paper's Figure 2 is not just a heatmap of runtimes — it is also a
catalogue of *failures*: a compiler error for Kernel 22 under the
Fujitsu clang-backend, runtime errors on six micro kernels under GNU,
and cells that simply never produce a time-to-solution.  Real
compiler x benchmark sweeps on clusters add their own failure modes on
top (node loss, hung jobs, corrupted scratch files).  This module
names them all:

:class:`CompileFault`
    The toolchain rejected or crashed on the code ("compiler error"
    cells).
:class:`RuntimeFault`
    The build succeeded but the binary faulted or aborted when run
    ("runtime error" cells).
:class:`TimeoutFault`
    The cell exceeded its wall-clock budget — the paper's cells that
    never report a time-to-solution.
:class:`VerificationFault`
    The run finished but produced wrong answers (failed the built-in
    verification most HPC suites carry).
:class:`WorkerCrash`
    The worker process executing the cell died (node loss, OOM kill);
    the cell itself may be perfectly fine and is requeued.

Each fault is **transient** (worth retrying: a flaky file system, a
crashed node) or **permanent** (deterministic: the compiler genuinely
rejects the code).  :class:`FailureInfo` is the serialized form a
failed :class:`~repro.harness.results.RunRecord` carries in its
``failure`` block — schema-additive, so result files written before
this subsystem still load.

This module is a leaf: it imports nothing from the rest of the
package, so every layer (runner, engine, results, analysis) can depend
on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Cell statuses (mirrors ``repro.harness.results.STATUS_*``; duplicated
#: as literals because this module must stay import-cycle free).
_STATUS_COMPILE_ERROR = "compiler error"
_STATUS_RUNTIME_ERROR = "runtime error"
_STATUS_TIMEOUT = "timeout"
_STATUS_VERIFICATION_ERROR = "verification error"
_STATUS_WORKER_CRASH = "worker crash"

#: Injection sites a :class:`~repro.faults.plan.FaultRule` can target.
SITE_COMPILE = "compile"
SITE_RUN = "run"
SITE_TIMEOUT = "timeout"
SITE_VERIFY = "verify"
SITE_WORKER = "worker"
SITE_CACHE = "cache"
SITES = (
    SITE_COMPILE,
    SITE_RUN,
    SITE_TIMEOUT,
    SITE_VERIFY,
    SITE_WORKER,
    SITE_CACHE,
)


@dataclass(frozen=True)
class Fault:
    """One failure occurrence at one execution site.

    Subclasses fix the taxonomy kind; ``transient`` decides whether the
    retry machinery may re-attempt the cell, ``injected`` marks faults
    planted by a :class:`~repro.faults.plan.FaultInjector` (chaos runs)
    as opposed to organically observed ones.
    """

    site: str = SITE_RUN
    message: str = ""
    transient: bool = False
    injected: bool = False

    #: The Figure 2 cell status a record gets when this fault is final.
    status: str = field(default=_STATUS_RUNTIME_ERROR, init=False, repr=False)

    @property
    def kind(self) -> str:
        """Stable taxonomy name (the class name)."""
        return type(self).__name__


@dataclass(frozen=True)
class CompileFault(Fault):
    """The toolchain rejected or crashed on the code."""

    site: str = SITE_COMPILE
    status: str = field(default=_STATUS_COMPILE_ERROR, init=False, repr=False)


@dataclass(frozen=True)
class RuntimeFault(Fault):
    """The binary built but faulted (or the harness itself errored)."""

    site: str = SITE_RUN
    status: str = field(default=_STATUS_RUNTIME_ERROR, init=False, repr=False)


@dataclass(frozen=True)
class TimeoutFault(Fault):
    """The cell exceeded its wall-clock budget."""

    site: str = SITE_TIMEOUT
    status: str = field(default=_STATUS_TIMEOUT, init=False, repr=False)
    #: The budget that was exceeded (seconds); 0 for injected timeouts.
    timeout_s: float = 0.0
    #: How long the cell actually ran before being declared dead.
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class VerificationFault(Fault):
    """The run completed but produced wrong answers."""

    site: str = SITE_VERIFY
    status: str = field(default=_STATUS_VERIFICATION_ERROR, init=False, repr=False)


@dataclass(frozen=True)
class WorkerCrash(Fault):
    """The worker process executing the cell died mid-flight.

    Worker loss says nothing about the cell itself, so these are always
    transient at the campaign level: the engine requeues the work on a
    fresh pool (up to its restart budget).
    """

    site: str = SITE_WORKER
    transient: bool = True
    status: str = field(default=_STATUS_WORKER_CRASH, init=False, repr=False)


#: Fault class per injection site (the plan's ``site`` field).
FAULT_FOR_SITE: dict[str, type[Fault]] = {
    SITE_COMPILE: CompileFault,
    SITE_RUN: RuntimeFault,
    SITE_TIMEOUT: TimeoutFault,
    SITE_VERIFY: VerificationFault,
    SITE_WORKER: WorkerCrash,
    SITE_CACHE: Fault,  # cache faults only suppress hits; never a status
}

#: Taxonomy name -> class, for :meth:`FailureInfo.from_dict` validation.
FAULT_KINDS: dict[str, type[Fault]] = {
    cls.__name__: cls
    for cls in (Fault, CompileFault, RuntimeFault, TimeoutFault, VerificationFault, WorkerCrash)
}


def classify_exception(exc: BaseException) -> Fault:
    """Map an exception escaping a cell to a taxonomy fault.

    Environmental errors (file system hiccups, resource exhaustion,
    interpreter-level timeouts) are *transient* — on a cluster these
    are exactly the failures a retry absorbs.  Anything else is a
    deterministic bug in the cell and therefore *permanent*: retrying
    would reproduce it, so the cell is recorded as failed instead of
    burning the retry budget.
    """
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, (TimeoutError,)):
        return TimeoutFault(message=message, transient=True)
    if isinstance(exc, (OSError, MemoryError, ConnectionError)):
        return RuntimeFault(message=message, transient=True)
    return RuntimeFault(message=message, transient=False)


@dataclass(frozen=True)
class RetryStep:
    """One consumed retry in a failed cell's history: the fault that
    ended the attempt, and the backoff slept before the next one.

    Flat fields (not a nested :class:`FailureInfo`) keep the serialized
    form small and non-recursive.
    """

    attempt: int  # 0-based attempt the fault struck
    kind: str  # taxonomy class name of the fault
    site: str
    message: str = ""
    transient: bool = False
    injected: bool = False
    #: Backoff slept before the next attempt (seconds).
    delay_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "site": self.site,
            "message": self.message,
            "transient": self.transient,
            "injected": self.injected,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RetryStep":
        return cls(
            attempt=int(raw.get("attempt", 0)),
            kind=str(raw.get("kind", "Fault")),
            site=str(raw.get("site", SITE_RUN)),
            message=str(raw.get("message", "")),
            transient=bool(raw.get("transient", False)),
            injected=bool(raw.get("injected", False)),
            delay_s=float(raw.get("delay_s", 0.0)),
        )


@dataclass(frozen=True)
class FailureInfo:
    """The structured ``failure`` block a failed record carries.

    Serialized additively into the schema-v2 result JSON: records
    without the block (all pre-fault-subsystem files) round-trip
    unchanged, and the per-retry ``history`` is itself additive —
    failure blocks written before it existed load as an empty history.
    """

    kind: str  # taxonomy class name, e.g. "TimeoutFault"
    site: str
    message: str = ""
    transient: bool = False
    injected: bool = False
    #: Total attempts made on the cell (1 = no retries).
    attempts: int = 1
    #: Retries consumed (``attempts - 1``).
    retries: int = 0
    #: What each consumed retry absorbed (fault + backoff), in attempt
    #: order; empty when the cell failed on its first attempt.
    history: tuple[RetryStep, ...] = ()

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "site": self.site,
            "message": self.message,
            "transient": self.transient,
            "injected": self.injected,
            "attempts": self.attempts,
            "retries": self.retries,
        }
        if self.history:
            # Only when present, so pre-history failure blocks (and
            # first-attempt failures) keep their exact serialized form.
            doc["history"] = [step.to_dict() for step in self.history]
        return doc

    @classmethod
    def from_dict(cls, raw: dict) -> "FailureInfo":
        return cls(
            kind=str(raw.get("kind", "Fault")),
            site=str(raw.get("site", SITE_RUN)),
            message=str(raw.get("message", "")),
            transient=bool(raw.get("transient", False)),
            injected=bool(raw.get("injected", False)),
            attempts=int(raw.get("attempts", 1)),
            retries=int(raw.get("retries", 0)),
            history=tuple(
                RetryStep.from_dict(step) for step in raw.get("history", ())
            ),
        )


def failure_info(
    fault: Fault,
    attempts: int = 1,
    history: "tuple[RetryStep, ...]" = (),
) -> FailureInfo:
    """The serializable failure block for a fault that ended a cell."""
    return FailureInfo(
        kind=fault.kind,
        site=fault.site,
        message=fault.message,
        transient=fault.transient,
        injected=fault.injected,
        attempts=attempts,
        retries=max(0, attempts - 1),
        history=history,
    )
