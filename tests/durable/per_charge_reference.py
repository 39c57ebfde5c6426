"""One CHARGE record per admitted charge, frozen as a reference.

Format 2's ``DurabilityManager.log_charge`` appended one CHARGE record
per admitted charge, at admission, with the body
``{"delta", "epsilon", "label", "user_id"}`` written byte for byte as
``encode_json_payload`` writes that dict.  A manager now logs the
charges admitted since the last CHARGE record as one group record, no
later than the first batch or commit point after them.

:func:`encode_charge_payload` keeps the old body (logs written before
the change hold it, and recovery still reads it); :func:`install` puts
the old logging back on a live manager, so a test can run the same
session both ways and compare what recovery rebuilds.
"""

import json
from json.encoder import encode_basestring_ascii
from math import isfinite

from repro.durable import records as rec
from repro.privacy.ldp import LDPGuarantee


def _json_scalar(value) -> str:
    """``value`` as ``encode_json_payload`` writes it inside a dict."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def encode_charge_payload(user_id, epsilon, delta, label) -> bytes:
    """One charge's format-2 CHARGE body; a value that is not
    JSON-serialisable raises ``RecordError``."""
    try:
        return (
            f'{{"delta":{_json_scalar(delta)},'
            f'"epsilon":{_json_scalar(epsilon)},'
            f'"label":{_json_scalar(label)},'
            f'"user_id":{_json_scalar(user_id)}}}'
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise rec.RecordError(
            f"record payload is not JSON-serialisable: {exc}"
        ) from exc


def install(manager) -> None:
    """Make ``manager`` append one CHARGE record per charge at
    admission, as format 2 did (its charge groups then stay empty); a
    bulk chunk's group goes through ``log_charge`` one user at a time,
    as format 2's bulk path did."""
    wal = manager.wal

    def log_charge(user_id, guarantee, *, label=""):
        manager.charges_logged += 1
        return wal.append(
            rec.CHARGE,
            encode_charge_payload(
                user_id, guarantee.epsilon, guarantee.delta, label
            ),
        )

    manager.log_charge = log_charge

    def log_charges(user_ids, epsilon, delta, label):
        for user_id, eps, dlt in zip(user_ids, epsilon.tolist(), delta.tolist()):
            manager.log_charge(
                user_id, LDPGuarantee(epsilon=eps, delta=dlt), label=label
            )

    manager.log_charges = log_charges
