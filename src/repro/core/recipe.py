"""Recipe identity: content digests for "has this changed?" questions.

The virtual-data model answers staleness questions by comparing the
*recipe* a replica was produced from (recorded at execution time)
against the recipe the catalog holds *now*.  A recipe is the pair
(derivation, transformation): the argument bindings plus the program
they feed.  :func:`recipe_digest` canonicalizes both payloads and
hashes them, so any semantic edit — an actual rebound, an environment
variable changed, a transformation body or version replaced — yields a
new digest, while metadata-only churn (attributes, annotations) does
not.

Executors stamp the digest and the transformation version into every
invocation's attributes (:data:`TR_VERSION_ATTR`,
:data:`RECIPE_DIGEST_ATTR`); the staleness dataflow pass
(:mod:`repro.analysis.passes`) compares those records against the
live catalog.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

#: Invocation attribute holding the transformation version executed.
TR_VERSION_ATTR = "recipe.tr_version"
#: Invocation attribute holding the recipe digest executed.
RECIPE_DIGEST_ATTR = "recipe.digest"


def _strip_volatile(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Drop metadata keys that must not affect recipe identity."""
    return {k: v for k, v in payload.items() if k != "attributes"}


def transformation_digest(tr_payload: Mapping[str, Any]) -> str:
    """Digest of a transformation payload (name, version, body)."""
    blob = _encode(_strip_volatile(tr_payload))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _encode(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def recipe_digest(
    dv_payload: Mapping[str, Any],
    tr_payload: Optional[Mapping[str, Any]],
) -> str:
    """Digest of a full recipe: derivation bindings + transformation.

    ``tr_payload`` may be ``None`` when the transformation cannot be
    resolved (dangling reference); the digest still identifies the
    derivation half so redefinitions remain detectable.
    """
    doc = {
        "derivation": _strip_volatile(dv_payload),
        "transformation": (
            _strip_volatile(tr_payload) if tr_payload is not None else None
        ),
    }
    return hashlib.sha256(_encode(doc).encode("utf-8")).hexdigest()


def stamp_recipe(invocation: Any, dv: Any, tr: Any) -> None:
    """Record the executed recipe's identity on an invocation.

    Called by executors just before the invocation is added to the
    catalog; the staleness analysis compares these attributes against
    the recipe the catalog currently resolves.  The digest is
    :func:`recipe_digest`'s: with sorted keys the blob is
    ``{"derivation":…,"transformation":…}``, so the transformation
    half is encoded once per transformation record (while its
    serialized XML stands) and spliced in.
    """
    tr_payload = tr.to_dict()
    memo = getattr(tr, "_recipe_half", None)
    if memo is None or memo[0] is not tr_payload["xml"]:
        memo = tr._recipe_half = (
            tr_payload["xml"], _encode(_strip_volatile(tr_payload))
        )
    blob = (
        f'{{"derivation":{_encode(_strip_volatile(dv.to_dict()))},'
        f'"transformation":{memo[1]}}}'
    )
    invocation.attributes.set(TR_VERSION_ATTR, tr.version)
    invocation.attributes.set(
        RECIPE_DIGEST_ATTR, hashlib.sha256(blob.encode("utf-8")).hexdigest()
    )
