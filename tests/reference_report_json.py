"""The encoder that ``VerificationReport.to_json`` replaced: every field
deep-copied through ``dataclasses.asdict``, the claim parameters the claim
does not read (``None``) dropped, the pattern fields nested, then
``failures`` and ``passing``.  ``test_verdict_reference.py`` requires the
same bytes from ``to_json`` on a sweep of forms, inputs, sizes and scales.
"""

import json
from dataclasses import asdict


def reference_report_json(report) -> str:
    """``report.to_json()`` as the ``asdict`` encoder wrote it."""
    payload = {key: value for key, value in asdict(report).items()
               if value is not None or key not in ("schedule", "dims", "stride")}
    payload["pattern"] = {
        "kind": payload.pop("pattern_kind"),
        "violations": payload.pop("pattern_violations"),
    }
    payload["failures"] = report.failures
    payload["passing"] = not payload["failures"]
    return json.dumps(payload, sort_keys=True)
