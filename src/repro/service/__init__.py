"""The campaign service: a long-lived, multi-tenant sweep scheduler.

The batch engine (:mod:`repro.harness.engine`) runs one campaign per
process invocation.  This package is the *write side* of the campaign
service the ROADMAP calls for: an asyncio HTTP/JSON front end
(:class:`CampaignService`) layered over a shared cell scheduler
(:class:`CampaignScheduler`) that

* accepts concurrent campaign submissions from multiple tenants
  (``POST /campaigns``),
* dedupes overlapping cells across tenants through the same
  content-addressed cell cache the engine uses — one in-flight
  execution per cell fingerprint, all waiters fan in,
* batches the compilation of kernels shared between campaigns
  (benchmark-major dispatch to workers that keep their compiles),
* answers fully-cached campaigns without spawning a single pool
  worker,
* persists every accepted campaign in the service registry so a
  restart reruns in-flight campaigns, their finished cells answered
  from the cell cache,
* streams typed campaign events to clients (``GET
  /campaigns/<id>/events``, server-sent events).

See ``docs/SERVICE.md`` for the full API surface and semantics.
"""

from repro import _lazy_exports
from repro.service.config import (
    CampaignSpec,
    ServiceError,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.registry import ServiceRegistry

__all__ = [
    "CampaignScheduler",
    "CampaignService",
    "CampaignSpec",
    "ServiceCampaign",
    "ServiceError",
    "ServiceRegistry",
    "spec_from_dict",
    "spec_to_dict",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.service.scheduler": ("CampaignScheduler", "ServiceCampaign"),
    "repro.service.server": ("CampaignService",),
})
