"""Per-layer metrics computed from a trace record (spans, counters, fit results).

A metric whose function was never called, or no longer exists, has no
sample; it comes out as None ("absent") instead of failing the run.
"""
from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import FIT, FORWARD, FORWARD_IN_FIT

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _pct(values: list[float], q: float):
    """Median for q = 50, nearest rank otherwise; None without samples."""
    if not values:
        return None
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(num, den):
    return None if not den else num / den


def metrics(record: dict) -> dict[str, tuple[float | None, str]]:
    spans = record["spans"]
    counts = record["counts"]
    fits = record["fits"]
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    self_times = defaultdict(list)
    for index, (name, start, end, _) in enumerate(spans):
        durations[name].append(end - start)
        self_times[name].append(end - start - child_time[index])

    def timing(name, q, unit, source=durations):
        value = _pct(source.get(name, []), q)
        return (None if value is None else value * SCALE[unit], unit)

    def count(name):
        return (counts.get(name, 0), "count")

    n_fits = len(fits)
    forward_misses = counts.get("model.prob_matrix", 0) + counts.get("model.pixel_probs", 0)
    cli_self = sum(sum(values) for name, values in self_times.items() if name.startswith("cli."))
    return {
        "model.prob_matrix_calls": count("model.prob_matrix"),
        "model.prob_matrix_us_p50": timing("model.prob_matrix", 50, "us"),
        "model.prob_matrix_us_p99": timing("model.prob_matrix", 99, "us"),
        "model.pixel_probs_gaussian_us_p50": timing("model.pixel_probs[gaussian]", 50, "us"),
        "model.pixel_probs_spdc_us_p50": timing("model.pixel_probs[spdc]", 50, "us"),
        "model.pixel_probs_calls": count("model.pixel_probs"),
        "overlap.displaced_overlap_calls": count("overlap.displaced_overlap"),
        "specfun.laguerre_calls": count("specfun.laguerre"),
        "source.schmidt_coeff_calls": count("source.schmidt_coeff"),
        "specfun.hg1d_batch_calls": count("specfun.hg1d_batch"),
        "specfun.hg1d_batch_elements": count("specfun.hg1d_batch.elements"),
        "source.from_gamma_us": timing("source.SchmidtModel.from_gamma", 50, "us"),
        "inference.mle_estimate_ms_p50": timing(FIT, 50, "ms"),
        "inference.mle_estimate_ms_p99": timing(FIT, 99, "ms"),
        "inference.mle_estimate_self_ms_p50": timing(FIT, 50, "ms", self_times),
        "inference.forward_calls_per_fit": (_ratio(counts.get(FORWARD_IN_FIT, 0), n_fits),
                                            "calls/fit"),
        "inference.forward_miss_frac": (_ratio(forward_misses, counts.get(FORWARD, 0)), "frac"),
        "inference.refine_iterations_per_fit": (_ratio(sum(f[0] for f in fits), n_fits),
                                                "iter/fit"),
        "inference.converged_frac": (_ratio(sum(1 for f in fits if f[1]), n_fits), "frac"),
        "inference.boundary_frac": (_ratio(sum(1 for f in fits if "boundary" in f[2]), n_fits),
                                    "frac"),
        "inference.flat_frac": (_ratio(sum(1 for f in fits if "flat-likelihood" in f[2]), n_fits),
                                "frac"),
        "inference.sample_counts_us_p50": timing("inference.sample_counts", 50, "us"),
        "inference.mc_cell_s_p50": timing("inference.mc_standard_error", 50, "s"),
        "inference.fit_calibration_ms": timing("inference.fit_calibration", 50, "ms"),
        "cli.read_counts_file_ms_p50": timing("cli.read_counts_file", 50, "ms"),
        "cli.self_s": (cli_self if self_times.get("cli.main") else None, "s"),
    }
