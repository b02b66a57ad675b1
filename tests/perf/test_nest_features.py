"""``nest_time`` builds its :class:`NestFeatures` outside the bounded
feature memo of the batched evaluator."""

from __future__ import annotations

from repro.compilers.base import CodegenNestInfo
from repro.perf.batch import _FEATURES
from repro.perf.cost import machine_memo_key
from repro.perf.ecm import nest_time


def test_nest_time_leaves_the_feature_memo_alone(a64fx_machine, stream_kernel):
    # Static advice builds a fresh info per call; memoizing those would
    # evict the campaign's entries.
    nest = stream_kernel.nests[0]
    before = len(_FEATURES)
    infos = [CodegenNestInfo(nest=nest) for _ in range(50)]
    for info in infos:
        nest_time(info, a64fx_machine)
    assert len(_FEATURES) == before
    key = machine_memo_key(a64fx_machine)
    assert all(_FEATURES.get(info, key) is None for info in infos)
