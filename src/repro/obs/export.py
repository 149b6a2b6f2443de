"""Registry exporters: Prometheus text, CSV, JSON, benchmark dumps.

All output is deterministic: metrics render in sorted-name order, JSON is
dumped with sorted keys, and no timestamps other than the registry's own
virtual-clock values appear anywhere.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.metrics import Histogram, Registry


def _prom_name(name: str) -> str:
    """Metric name mangled to the Prometheus grammar."""
    mangled = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if mangled and mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def _prom_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(registry: Registry) -> str:
    """Prometheus exposition-format dump of every registered metric."""
    lines: List[str] = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        if isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            running = 0
            for bound, bucket_count in zip(metric.bounds, metric.bucket_counts):
                running += bucket_count
                lines.append(
                    f'{name}_bucket{{le="{_prom_value(bound)}"}} {running}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_prom_value(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
        else:
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.append(f"{name} {_prom_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_csv(registry: Registry) -> str:
    """Flat ``metric,value`` CSV; histograms expand into summary rows."""
    rows: List[str] = ["metric,value"]
    for metric in registry.metrics():
        if isinstance(metric, Histogram):
            for key, value in metric.snapshot().items():
                rows.append(f"{metric.name}.{key},{_prom_value(value)}")  # type: ignore[arg-type]
        else:
            rows.append(f"{metric.name},{_prom_value(metric.value)}")
    return "\n".join(rows) + "\n"


def metrics_json(registry: Registry, extra: Optional[Dict[str, object]] = None) -> str:
    """JSON document with the full registry snapshot (+ optional extras)."""
    document: Dict[str, object] = {"metrics": registry.snapshot()}
    if extra:
        document.update(extra)
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_metrics_json(
    registry: Registry,
    path: Union[str, pathlib.Path],
    extra: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    out = pathlib.Path(path)
    out.write_text(metrics_json(registry, extra), encoding="utf-8")
    return out


def write_bench_json(
    name: str,
    registry: Registry,
    figures: Optional[Dict[str, object]] = None,
    out_dir: Union[str, pathlib.Path] = ".",
) -> pathlib.Path:
    """Emit ``BENCH_<name>.json`` — benchmark figures + the registry they
    were computed from, so the perf trajectory is machine-readable."""
    out = pathlib.Path(out_dir) / f"BENCH_{name}.json"
    return write_metrics_json(registry, out, extra={"bench": name, "figures": figures or {}})


def write_bench_sections_json(
    name: str,
    sections: Dict[str, "tuple[Registry, Dict[str, object]]"],
    out_dir: Union[str, pathlib.Path] = ".",
    shared_figures: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Emit ``BENCH_<name>.json`` from several registries at once.

    Figures stay a flat top-level dict (``<section>_<figure>``) so tooling
    that walks ``document["figures"]`` — bench_diff in particular — treats
    sectioned and single-registry BENCH files identically; the per-section
    registry snapshots land under ``metrics[<section>]``.  Figures computed
    across sections go in ``shared_figures`` and keep their names.
    """
    figures: Dict[str, object] = dict(shared_figures or {})
    metrics: Dict[str, object] = {}
    for section, (registry, section_figures) in sorted(sections.items()):
        metrics[section] = registry.snapshot()
        for key, value in section_figures.items():
            figures[f"{section}_{key}"] = value
    document = {
        "bench": name,
        "figures": figures,
        "metrics": metrics,
        "sections": sorted(sections),
    }
    out = pathlib.Path(out_dir) / f"BENCH_{name}.json"
    out.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return out


__all__ = [
    "prometheus_text",
    "registry_csv",
    "metrics_json",
    "write_metrics_json",
    "write_bench_json",
    "write_bench_sections_json",
]
