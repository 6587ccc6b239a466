"""Canonical serialization and content hashing for the batch service.

Everything the result cache stores is keyed on content, never on
identity: the same simulation request always hashes to the same key, in
any process, on any machine.  Three digest families feed the key:

* :func:`repro.target.spec.TargetSpec.digest` — the machine;
* :func:`repro.asm.program.Program.digest` / :func:`network_digest` —
  the code (or network) being simulated;
* the job's canonical config JSON — everything else (geometry, bits,
  quantization mode, core count, ...).

:func:`simulator_digest` adds the simulator itself: any edit to its
source re-keys every result.

:func:`canonical_json` is the single serializer used for all of them:
sorted keys, compact separators, no NaN/Inf, tuples as lists.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Dict

from ..errors import ReproError


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact, ASCII, no NaN."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"value is not canonically serializable: {exc}")


def digest_of(obj: Any) -> str:
    """Hex SHA-256 of the canonical JSON form of *obj*."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def simulator_digest() -> str:
    """Hex SHA-256 of every ``*.py`` file of the ``repro`` package, in
    sorted path order (computed once per process)."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def array_digest(arr) -> str:
    """Hex SHA-256 of a numpy array's dtype, shape, and raw bytes."""
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(tuple(arr.shape)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def network_digest(built) -> str:
    """Content hash of a :class:`~repro.compiler.networks.BuiltNetwork`.

    Covers the input tensor, the layer sequence, and every layer's
    weights and quantization parameters — the full definition of what a
    :class:`CompileJob` simulates.  Catalog networks are built from fixed
    seeds, so the digest is stable across processes.
    """
    h = hashlib.sha256()
    h.update(array_digest(built.input).encode())
    h.update(canonical_json({
        "input_shape": list(built.input_shape),
        "input_bits": built.input_bits,
    }).encode())
    for layer in built.network.layers:
        desc: Dict[str, Any] = {"kind": type(layer).__name__,
                                "name": getattr(layer, "name", "")}
        for attr in ("weight_bits", "in_bits", "out_bits", "stride", "pad",
                     "size"):
            if hasattr(layer, attr):
                desc[attr] = getattr(layer, attr)
        h.update(canonical_json(desc).encode())
        weights = getattr(layer, "weights", None)
        if weights is not None:
            h.update(array_digest(weights).encode())
    return h.hexdigest()
