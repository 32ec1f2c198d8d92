"""Deterministic JSON reports.

The emitter prints floats with 17 significant digits (``%.17g``), emits
mapping keys in sorted order, and represents complex numbers as two-element
``[re, im]`` arrays, so a report is byte-identical across runs for identical
inputs. Non-finite floats become ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

import numpy as np

from .ideals import Certificate, CombinedUnit, PeakStage, UnitStage
from .zerosets import (
    EPS_SCHEDULE,
    WIDTH_SCHEDULE,
    ExtensionResult,
    ZeroSetEstimate,
    ZinftyReport,
)


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

def extension_report(ext: ExtensionResult) -> dict:
    return {
        "ok": ext.ok,
        "value": complex(ext.value),
        "oscillations": [float(o) for o in ext.oscillations],
        "tolerance": float(ext.tolerance),
        "decay_ratio": float(ext.decay_ratio),
    }


def zero_set_report(est: ZeroSetEstimate) -> dict:
    return {
        "angles": [float(a) for a in est.angles],
        "points": [complex(p) for p in est.points],
        "resolution": float(est.resolution),
        "eps_schedule": [float(e) for e in EPS_SCHEDULE],
        "width_schedule": [float(w) for w in WIDTH_SCHEDULE],
        "candidates": [
            {
                "angle": float(c.angle),
                "point": complex(c.point),
                "accepted": bool(c.accepted),
                # rows follow eps_schedule, columns width_schedule
                "evidence": [[float(m) for m in row] for row in c.evidence],
            }
            for c in est.candidates
        ],
    }


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
    if isinstance(stage, UnitStage):
        return {
            "kind": "sublevel",
            "stage": stage.index,
            "eps": stage.eps,
            "support_measure": stage.support_measure,
            "degenerate": stage.degenerate,
            "off_support_deviation": stage.off_support_deviation,
            "on_support_max": stage.on_support_max,
            "value_at_zero": stage.value_at_zero,
            "cofactor_sup": stage.cofactor_sup,
            "error": stage.error,
            "sup_norm": stage.sup_norm,
        }
    if isinstance(stage, PeakStage):
        return {
            "kind": "peak",
            "power": stage.index,
            "error": stage.error,
            "sup_norm": stage.sup_norm,
        }
    if isinstance(stage, CombinedUnit):
        return {
            "kind": "combined",
            "errors": [float(e) for e in stage.errors],
            "ess_inf": stage.ess_inf,
            "sup_norm": stage.sup_norm,
        }
    raise TypeError(f"unknown stage type {type(stage).__name__}")


def certificate_report(cert: Certificate) -> dict:
    report = {
        "generators": list(cert.ideal.names),
        "strategy": cert.strategy,
        "tol": cert.tol,
        "passed": cert.passed,
        "failure_reason": cert.failure_reason,
        "final_error": cert.final_error,
        "sup_bound": cert.sup_bound,
        "stages": [stage_report(s) for s in cert.stages],
        "zero_angles": [float(a) for a in cert.zero_angles],
        "resolution": cert.resolution,
        "conclusion": cert.conclusion,
        "notes": list(cert.notes),
    }
    if cert.combined_inf is not None:
        report["combined_inf"] = cert.combined_inf
    if cert.peak_prep is not None:
        prep = cert.peak_prep
        report["peak_alignment"] = {
            "alpha": prep.alpha,
            "scale": prep.scale,
            "rescaled": prep.rescaled,
            "sup_base": prep.sup_base,
            "range_gap": prep.range_gap,
        }
    if cert.sub_certificates:
        report["sub_certificates"] = [
            certificate_report(c) for c in cert.sub_certificates
        ]
    return report
