"""Verification as a service: a daemon with warm per-circuit workers.

``repro serve`` runs the asyncio :class:`~repro.service.supervisor.Supervisor`
on a unix socket; ``repro submit`` (or :func:`check_via_service`) sends it
:class:`repro.api.CheckRequest` payloads over the versioned JSON-lines
protocol of :mod:`repro.service.protocol` (``repro-service/v1``).  Jobs are
routed to worker processes keyed by circuit fingerprint, so repeated checks
of the same design reuse warm unrolled models, learned cubes and open
knowledge-base handles instead of paying cold start each time.  See
``docs/service.md`` for the protocol schema and job lifecycle, and
``docs/resilience.md`` for the failure-handling contract (typed causes,
retries, deadlines, quarantine, drain).

Exports are lazy (PEP 562): ``repro submit`` imports the client and the
protocol without loading the supervisor or the checking engine.
"""

from repro._lazy import lazy_exports

_CLIENT_NAMES = (
    "SOCKET_ENV", "JobFailure", "RetryPolicy", "ServiceClient",
    "ServiceConnectionLost", "ServiceError", "ServiceTimeout",
    "ServiceUnavailable", "check_in_process", "check_via_service",
    "default_socket_path", "service_available",
)
_FLEET_NAMES = (
    "ENDPOINTS_ENV", "FLEET_FILE_ENV", "FleetEndpoint", "FleetError",
    "FleetRouter", "probe_endpoint", "rendezvous_order", "resolve_endpoints",
    "sync_stores",
)
_PROTOCOL_NAMES = (
    "FAILURE_CAUSES", "JOB_STATES", "PROTOCOL", "VERBS", "ProtocolError",
)
_EXPORTS = {
    **{name: "repro.service.client" for name in _CLIENT_NAMES},
    **{name: "repro.service.fleet" for name in _FLEET_NAMES},
    **{name: "repro.service.protocol" for name in _PROTOCOL_NAMES},
    "ServiceOptions": "repro.service.supervisor",
    "Supervisor": "repro.service.supervisor",
    "serve": "repro.service.supervisor",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)
