"""repro.api — the typed request/response surface of the broadcast system.

Every program that talks to this system — the batch CLI, the
:mod:`repro.control` plane, tests, external clients — speaks the frozen
dataclasses defined here, serialised through one versioned JSON codec.
This replaces the ad-hoc keyword threading that used to flow into
:meth:`repro.engine.BroadcastEngine.live` with an explicit, documented,
wire-stable contract:

* **Requests** — :class:`CreateServiceRequest`, :class:`MutationBatch`,
  :class:`SloQuery`, :class:`ErrorBudgetQuery`, :class:`FinishService`,
  :class:`ListServices`, :class:`Shutdown`.
* **Responses** — :class:`ServiceCreated`, :class:`MutationBatchResult`,
  :class:`SloVerdict`, :class:`ErrorBudgetReport`,
  :class:`ServiceManifest`, :class:`ServiceList`, :class:`Ack`,
  :class:`ApiError`.
* **Remediation** — :class:`RemediationPolicy` (configuration),
  :class:`RemediationCandidate` and :class:`RemediationRecord` (the
  detector → proposer → verifier decision trail recorded in manifests).
* **Codec** — :func:`encode` / :func:`decode` (payload dicts carrying
  ``api_version``), :func:`encode_line` / :func:`decode_line`
  (newline-delimited JSON, the control-plane wire format).
* **Manifest codecs** — :func:`manifest_from_dict` /
  :func:`manifest_to_dict` / :func:`manifest_from_json` /
  :func:`manifest_to_json`, the supported way to parse any manifest
  schema version (v1..v6) into the current shape.
"""

from repro.api.codec import (
    API_VERSION,
    decode,
    decode_line,
    encode,
    encode_line,
    manifest_from_dict,
    manifest_from_json,
    manifest_to_dict,
    manifest_to_json,
    message_types,
)
from repro.api.types import (
    Ack,
    ApiError,
    CreateServiceRequest,
    ErrorBudgetQuery,
    ErrorBudgetReport,
    FinishService,
    ListServices,
    MAX_QUERY_PAGES,
    MutationBatch,
    MutationBatchResult,
    RemediationCandidate,
    RemediationPolicy,
    RemediationRecord,
    ServiceCreated,
    ServiceList,
    ServiceManifest,
    Shutdown,
    SloQuery,
    SloVerdict,
)

__all__ = [
    "API_VERSION",
    "Ack",
    "ApiError",
    "CreateServiceRequest",
    "ErrorBudgetQuery",
    "ErrorBudgetReport",
    "FinishService",
    "ListServices",
    "MAX_QUERY_PAGES",
    "MutationBatch",
    "MutationBatchResult",
    "RemediationCandidate",
    "RemediationPolicy",
    "RemediationRecord",
    "ServiceCreated",
    "ServiceList",
    "ServiceManifest",
    "Shutdown",
    "SloQuery",
    "SloVerdict",
    "decode",
    "decode_line",
    "encode",
    "encode_line",
    "manifest_from_dict",
    "manifest_from_json",
    "manifest_to_dict",
    "manifest_to_json",
    "message_types",
]
