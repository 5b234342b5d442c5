"""Compute the mpmath reference values of the ``laws`` workload.

Run once from the repository root, never during a timed run:

    python3 bench/make_lawref.py

It writes ``bench/reference/laws_ref.json.gz`` (one reference per case of
``lawgrid.cases()``) and then ``bench/reference/laws_baseline.json``: the
number of failing evaluations per series for the fragsim under ``src/``,
under the rule the workload applies. The baseline is recorded as it is
found; no failing point is dropped from the grid.

The references share no code with fragsim. Finite-n laws use partial
fractions over the distinct rates q^-i of the hypoexponential sum; the
perpetuity limit uses its product-form series with mpmath's own
q-Pochhammer. Survival, density and pmf references are exact to about
1e-40 absolutely, far below the double rounding every fragsim error bound
allows for; CDF references, whose error bounds can be tiny, are resolved to
25 significant digits by raising the precision, or are 0.0 when they lie
below the smallest double.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

import lawgrid

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REF_FILE = REFERENCE_DIR / "laws_ref.json.gz"
BASELINE_FILE = REFERENCE_DIR / "laws_baseline.json"

# Significant digits a CDF reference must have above the working noise.
_GUARD_DIGITS = 25
# Below this a value rounds to 0.0 as a double.
_DOUBLE_FLOOR_DIGITS = 330


class Hypoexp:
    """Partial-fraction coefficients of sum_{i<=n} q^i W_i at a given precision."""

    def __init__(self, q: float, n: int):
        self.q, self.n = q, n
        with mp.workdps(30):
            _, coeffs = self._coeffs()
            self.log10_scale = max(0.0, float(mp.log10(max(abs(c) for c in coeffs))))
        self._cache: dict[int, tuple[list, list]] = {}

    def _coeffs(self):
        rates = [mpf(self.q) ** (-i) for i in range(self.n + 1)]
        coeffs = []
        for i, ri in enumerate(rates):
            c = mpf(1)
            for j, rj in enumerate(rates):
                if j != i:
                    c *= rj / (rj - ri)
            coeffs.append(c)
        return rates, coeffs

    def at(self, dps: int):
        if dps not in self._cache:
            with mp.workdps(dps):
                self._cache[dps] = self._coeffs()
        return self._cache[dps]

    def base_dps(self) -> int:
        return int(math.ceil(self.log10_scale)) + 40

    def terms(self, dps: int, t: float, with_rate: bool):
        rates, coeffs = self.at(dps)
        with mp.workdps(dps):
            total = mpf(0)
            for r, c in zip(rates, coeffs):
                x = r * mpf(t)
                if x > 1e5:  # exp(-x) is far below any working precision
                    continue
                term = c * mp.exp(-x)
                total += term * r if with_rate else term
            return total

    def survival(self, t: float) -> mpf:
        return self.terms(self.base_dps(), t, with_rate=False)

    def density(self, t: float) -> mpf:
        return self.terms(self.base_dps(), t, with_rate=True)

    def cdf(self, t: float) -> mpf:
        """1 - survival, resolved relatively by raising the precision."""
        if t == 0.0:
            return mpf(0)
        extra = 0
        while True:
            dps = self.base_dps() + extra
            with mp.workdps(dps):
                value = 1 - self.terms(dps, t, with_rate=False)
            # the alternating sum is known to about 10^-noise absolutely
            noise = dps - self.log10_scale
            if value > 0 and mp.log10(value) > _GUARD_DIGITS - noise:
                return value
            if noise > _DOUBLE_FLOOR_DIGITS + _GUARD_DIGITS:
                return mpf(0)
            extra += 80


class Limit:
    """sum_j (-1)^j q^{j(j+1)/2} exp(-q^-j t) / ((q;q)_j (q;q)_inf)."""

    def __init__(self, q: float):
        self.q = q
        _, biggest = self._weights(30)
        self.dps = int(math.ceil(float(mp.log10(biggest)))) + 40
        self.weights, _ = self._weights(self.dps)

    def _weights(self, dps: int):
        with mp.workdps(dps):
            qm = mpf(self.q)
            phi_inf = mp.qp(qm)
            floor = mpf(10) ** (-dps - 10)
            weights, biggest = [], mpf(0)
            qpow, phi_j, j = mpf(1), mpf(1), 0
            while True:
                w = qpow / phi_j / phi_inf
                if j > 0 and w < floor:
                    return weights, biggest
                weights.append((-1) ** j * w)
                biggest = max(biggest, w)
                j += 1
                qpow *= qm**j
                phi_j *= 1 - qm**j

    def survival(self, t: float) -> mpf:
        with mp.workdps(self.dps):
            qm = mpf(self.q)
            return sum(
                w * mp.exp(-(qm ** -j) * mpf(t)) for j, w in enumerate(self.weights)
            )


def tagged_pmf(q: float, n: int, t: float, dists: dict) -> mpf:
    def split_survival(m):
        dist = dists.setdefault((q, m), Hypoexp(q, m))
        with mp.workdps(dist.base_dps()):
            x = mpf(q) ** m * mpf(t)
        return dist.terms(dist.base_dps(), x, with_rate=False)

    if n == 0:
        return split_survival(0)
    with mp.workdps(60):
        return split_survival(n) - split_survival(n - 1)


def lefttail_ref(fn: str, args: tuple):
    with mp.workdps(50):
        q = mpf(args[0])
        kappa = 1 / mp.log(1 / q)
        s = mpf(args[-1])
        big_s = mp.log(1 / s)
        loglog = mp.log(big_s)
        if fn == "left_tail_exponent":
            core = big_s + loglog + 1 / (2 * kappa) + mp.log(kappa) - 1
            return float(kappa / 2 * core**2 + (mpf(1) / 2 + kappa) * loglog)
        if fn == "critical_term_count":
            return int(mp.floor(kappa * (big_s + loglog))) + 1
        m = args[1]
        log_upper = m * mp.log(s) - mpf(m) * (m - 1) / 2 * mp.log(q) - mp.loggamma(m + 1)
        if fn == "log_left_tail_upper":
            return float(log_upper)
        penalty = s * q ** (-m) / ((1 / q - 1) * m)
        return [float(mp.exp(log_upper - penalty)), float(mp.exp(log_upper))]


def reference_values() -> dict[str, list]:
    out: dict[str, list] = {}
    dists: dict = {}
    for series in lawgrid.cases():
        fn = series.fn
        started = time.perf_counter()
        if fn in lawgrid.PERPETUITY_FNS:
            q, n = series.args[0][:2]
            dist = dists.setdefault((q, n), Hypoexp(q, n))
            method = {
                "perpetuity_survival": dist.survival,
                "perpetuity_density": dist.density,
                "perpetuity_cdf": dist.cdf,
            }[fn]
            refs = [float(method(t)) for _, _, t in series.args]
        elif fn == "perpetuity_survival_limit":
            limit = Limit(series.args[0][0])
            refs = [float(limit.survival(t)) for _, t in series.args]
        elif fn == "tagged_depth_pmf":
            refs = [float(tagged_pmf(q, n, t, dists)) for q, n, t in series.args]
        else:
            refs = [lefttail_ref(fn, args) for args in series.args]
        out[lawgrid.series_key(series)] = refs
        print(
            f"{lawgrid.series_key(series)}: {len(refs)} values "
            f"({time.perf_counter() - started:.1f}s)",
            file=sys.stderr,
        )
    return out


def main() -> None:
    repo = Path(__file__).resolve().parent.parent
    refs = reference_values()
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = json.dumps({"series": refs}, sort_keys=True, separators=(",", ":"))
    with open(REF_FILE, "wb") as raw:
        # mtime=0 keeps the file byte-identical across regenerations
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(payload.encode())

    sys.path.insert(0, str(repo / "src"))
    import workloads

    outdir = repo / "bench" / "out" / "lawref"
    outdir.mkdir(parents=True, exist_ok=True)
    laws = workloads.Laws()
    inputs = laws.inputs(workloads.DEFAULT_SEED, outdir)
    per_series = laws.failures_by_series(inputs, laws.job(inputs), refs)
    BASELINE_FILE.write_text(json.dumps(per_series, indent=1, sort_keys=True) + "\n")
    total = sum(v["failed"] for v in per_series.values())
    print(f"baseline: {total} failing evaluations", file=sys.stderr)


if __name__ == "__main__":
    main()
