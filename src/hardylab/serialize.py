"""Deterministic JSON reports.

The emitter prints floats with 17 significant digits (``%.17g``), emits
mapping keys in sorted order, and represents complex numbers as two-element
``[re, im]`` arrays, so a report is byte-identical across runs for identical
inputs. Non-finite floats become ``null``.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Any, Mapping, Sequence

import numpy as np

from .ideals import Certificate, CombinedUnit, PeakStage, UnitStage
from .zerosets import ExtensionResult, ZeroSetEstimate, ZinftyReport


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def dumps(obj: Any, indent: int = 0) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {dumps(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, Sequence):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_text(obj: Any) -> str:
    return dumps(obj) + "\n"


# ---------------------------------------------------------------------------
# report builders: domain objects -> plain dicts
# ---------------------------------------------------------------------------

def _fields(record, skip: tuple[str, ...] = ()) -> dict:
    """The fields of the dataclass ``record`` by name, less those in ``skip``;
    a tuple field comes out as a list."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record) if f.name not in skip)
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def extension_report(ext: ExtensionResult) -> dict:
    return _fields(ext, ("center",))


def zero_set_report(est: ZeroSetEstimate) -> dict:
    return _fields(est)


def zinfty_report_dict(rep: ZinftyReport) -> dict:
    return {
        "in_zinfty": rep.in_class,
        "zero_set": zero_set_report(rep.zero_set),
        "extensions": [
            {"angle": float(a), "extension": extension_report(e)}
            for a, e in zip(rep.zero_set.angles, rep.extensions)
        ],
    }


def stage_report(stage) -> dict:
    """Every field of ``stage``, with its kind; the index is a sublevel
    stage's ``stage`` and a peak stage's ``power``."""
    if isinstance(stage, UnitStage):
        kind, index = "sublevel", {"stage": stage.index}
    elif isinstance(stage, PeakStage):
        kind, index = "peak", {"power": stage.index}
    elif isinstance(stage, CombinedUnit):
        kind, index = "combined", {}
    else:
        raise TypeError(f"unknown stage type {type(stage).__name__}")
    return {"kind": kind, **index, **_fields(stage, ("index",))}


def certificate_report(cert: Certificate) -> dict:
    """Every field of ``cert`` with its stages reported, its generators by name;
    ``peak_alignment`` and ``sub_certificates`` only when set."""
    report = {
        **_fields(cert, ("ideal", "peak_prep", "sub_certificates")),
        "generators": list(cert.ideal.names),
        "stages": [stage_report(s) for s in cert.stages],
    }
    if cert.peak_prep is not None:
        report["peak_alignment"] = _fields(cert.peak_prep)
    if cert.sub_certificates:
        report["sub_certificates"] = [
            certificate_report(c) for c in cert.sub_certificates
        ]
    return report
