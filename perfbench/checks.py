"""Output checks against committed reference summaries.

A summary is the mean and RMS of ``ps``, ``u`` and ``theta`` — plus,
where physics runs, the mean and RMS of the moisture tracer ``qv`` and,
on ``coupled_g4``, the mean surface shortwave, longwave and skin
temperature of the physics steps — at a fixed point of the workload:
after a unit of work, which is the same computation in every unit and
on every run of a seed.  (Precipitation is not summarised: no rain forms within
a first unit, so it would read 0 whatever the physics computed.)  ``reference.json`` holds the values for
scenario seeds ``0 .. N_REFERENCE_SEEDS-1`` with each workload's
declared tolerance; ``python3 perfbench/run.py --record-reference
WORKLOAD`` rewrites a workload's entry.

A summary passes when ``|got - ref| <= rtol * scale + atol``, where
``scale`` is ``|ref|`` — or, for a mean, the larger of ``|ref|`` and the
field's reference RMS, so a mean near zero is judged against the
field's magnitude.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Workload seeds map onto this many committed scenario seeds.
N_REFERENCE_SEEDS = 4


def scenario_seed(seed: int) -> int:
    return seed % N_REFERENCE_SEEDS


def field_summaries(arrays: dict, scalars: dict | None = None) -> dict:
    """``<name>.mean`` and ``<name>.rms`` of each array, plus ``scalars``
    as given."""
    out = {}
    for name, a in arrays.items():
        a = np.asarray(a, dtype=np.float64)
        out[f"{name}.mean"] = float(a.mean())
        out[f"{name}.rms"] = float(np.sqrt(np.mean(a * a)))
    out.update(scalars or {})
    return out


def summary_scale(key: str, ref: dict) -> float:
    """The magnitude a summary's difference is judged against."""
    scale = abs(ref[key])
    if key.endswith(".mean"):
        scale = max(scale, abs(ref.get(key[:-5] + ".rms", 0.0)))
    return scale


def compare(got: dict, ref: dict, rtol: float, atol: float) -> list[str]:
    """Problems found comparing ``got`` with ``ref`` (empty = pass)."""
    problems = []
    if set(got) != set(ref):
        problems.append(
            f"summary keys differ: got {sorted(got)}, reference {sorted(ref)}"
        )
    for key in sorted(set(got) & set(ref)):
        a, b = got[key], ref[key]
        if not math.isfinite(a):
            problems.append(f"{key} is not finite ({a})")
            continue
        scale = summary_scale(key, ref)
        if abs(a - b) > rtol * scale + atol:
            rel = abs(a - b) / scale if scale else math.inf
            problems.append(
                f"{key} = {a!r}, reference {b!r} (relative difference "
                f"{rel:.3e} > rtol {rtol:.1e})"
            )
    return problems


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_against_reference(
    workload: str, seed: int, got: dict, reference: dict | None = None
) -> list[str]:
    ref = reference if reference is not None else load_reference()
    entry = ref["workloads"].get(workload)
    if entry is None:
        return [f"no reference summaries for {workload}"]
    values = entry["seeds"].get(str(scenario_seed(seed)))
    if values is None:
        return [f"no reference summary for {workload} seed {scenario_seed(seed)}"]
    return compare(got, values, entry["rtol"], entry["atol"])
