"""Fault injection and failure taxonomy for resilient campaigns.

The paper's Figure 2 treats failures as data — compiler errors,
runtime faults, cells with no time-to-solution.  This package gives
the harness the same discipline: a typed failure taxonomy
(:mod:`repro.faults.taxonomy`), deterministic seed-stable fault plans
(:mod:`repro.faults.plan`), and the retry policy the engine uses to
absorb transient faults.  See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.faults.taxonomy import (
    FAULT_FOR_SITE,
    FAULT_KINDS,
    SITE_CACHE,
    SITE_COMPILE,
    SITE_RUN,
    SITE_TIMEOUT,
    SITE_VERIFY,
    SITE_WORKER,
    SITES,
    CompileFault,
    FailureInfo,
    Fault,
    RetryStep,
    RuntimeFault,
    TimeoutFault,
    VerificationFault,
    WorkerCrash,
    classify_exception,
    failure_info,
)

__all__ = [
    "CompileFault",
    "FAULT_FOR_SITE",
    "FAULT_KINDS",
    "FailureInfo",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "RetryStep",
    "RuntimeFault",
    "SITES",
    "SITE_CACHE",
    "SITE_COMPILE",
    "SITE_RUN",
    "SITE_TIMEOUT",
    "SITE_VERIFY",
    "SITE_WORKER",
    "TimeoutFault",
    "VerificationFault",
    "WorkerCrash",
    "classify_exception",
    "failure_info",
]
