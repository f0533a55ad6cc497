"""Explicit threshold-model constructions and closed-form verification scans.

Each builder returns a tiny transformer whose designated hidden value
o_t[dim 3] follows a closed form in the position t: without any positional
remap the value crosses the threshold exactly at the window length M, while a
capped or staircase weave keeps it above threshold far beyond M.  The scan
runs the real forward pass and checks it against the independently computed
closed form.

The feed-forward step that turns the first layer's attention weight on the
first token back into an integer position is realized as an exact
breakpoint-lookup stand-in (any piecewise-capable MLP can implement it; see
build_position_decoder_mlp for an actual ReLU construction on a small range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from weavepe.model import (
    DenseFF,
    ForwardTrace,
    HeadWeights,
    LayerWeights,
    ModelWeights,
    _forward,
    forward,
    zero_ff,
)
from weavepe.pe_core import Scheme, WeaveParams, weave_table

#: double-precision floor for exp(-(t-1)); beyond this the first-layer signal underflows
MAX_SCAN = 700
#: hidden width d and head width h of every construction: the first three
#: hidden dimensions and three query/key slots are all they use
D_MODEL = D_HEAD = 3
#: the hidden dimension holding the designated value o_t[3] (the third)
WATCH_DIM = 2
#: largest gap between the forward pass and the closed form a scan accepts
SCAN_TOL = 1e-9


@dataclass(frozen=True)
class TheoryConfig:
    """Shared knobs for the constructions.

    window is the effective length M, threshold the free bound H, cap/tread
    the weave parameters (N, E).
    """

    window: int                # M
    threshold: float = 0.0     # H
    cap: int = 2               # N (weave models only)
    tread: int = 1             # E (staircase only)
    t_max: int = MAX_SCAN

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.t_max > MAX_SCAN:
            raise ValueError(f"t_max > {MAX_SCAN} underflows exp(-(t-1)) in double precision")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")


def geometric_sum(t) -> np.ndarray | float:
    """S(t) = sum_{j=0}^{t-1} e^(-j), in closed form."""
    t_arr = np.asarray(t, dtype=np.float64)
    out = (1.0 - np.exp(-t_arr)) / (1.0 - math.exp(-1.0))
    return float(out) if np.ndim(t) == 0 else out


def bos_weight(t) -> np.ndarray | float:
    """g(t) = e^(-(t-1)) / S(t): the first-layer attention weight on the first token."""
    t_arr = np.asarray(t, dtype=np.float64)
    out = np.exp(-(t_arr - 1.0)) / geometric_sum(t_arr)
    return float(out) if np.ndim(t) == 0 else out


def weave_schedule(weave: WeaveParams | None, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """First-layer signal schedule under a weave.

    Returns (x, p) where x[t-1] = e^(-W(t-1)) / sum_{d<t} e^(-W(d)) is the
    weight on the first token at position t, and p[t-1] = W(t-1) + 1 the
    position the decoder should recover there.  x is decreasing; staircase
    schedules plateau within a tread once e^(-W) underflows against the sum,
    where p is constant too.
    """
    w = weave_table(weave, t_max)
    ew = np.exp(-w)
    denom = np.cumsum(ew)
    x = ew / denom
    p = w + 1.0
    return x, p


class PositionDecoder:
    """Nearest-breakpoint inverse of a non-increasing signal schedule.

    The staircase schedules plateau in double precision once e^(-W) underflows
    against the running sum; positions sharing one float value also share one
    recovered output, so exact duplicates are collapsed to a single breakpoint.
    """

    def __init__(self, signal: np.ndarray, recovered: np.ndarray):
        diffs = np.diff(signal)
        if np.any(diffs > 0):
            raise ValueError("signal schedule must be non-increasing")
        flat = np.nonzero(diffs == 0)[0]
        if np.any(recovered[flat] != recovered[flat + 1]):
            raise ValueError("equal signal values must recover equal positions")
        keep = np.concatenate([[True], diffs < 0])
        self.signal = signal[keep]
        self.recovered = recovered[keep]
        self._log_asc = np.log(self.signal)[::-1]  # ascending
        self._out_asc = self.recovered[::-1]
        # anything half a between-position gap below the last breakpoint is the
        # ambiguous underflow region; within-tread gaps can be tiny, so use a
        # fixed margin rather than the local gap
        self._floor = self._log_asc[0] - 0.5

    def decode(self, x) -> np.ndarray | float:
        lx = np.log(np.asarray(x, dtype=np.float64))
        if np.any(lx < self._floor):
            raise ValueError("signal below the smallest breakpoint (underflow region)")
        pos = np.searchsorted(self._log_asc, lx)
        pos = np.clip(pos, 1, len(self._log_asc) - 1)
        lo, hi = self._log_asc[pos - 1], self._log_asc[pos]
        pick = np.where(np.abs(lx - lo) <= np.abs(lx - hi), pos - 1, pos)
        out = self._out_asc[pick]
        return float(out) if np.ndim(x) == 0 else out


def position_inversion(x: float, t_max: int) -> int:
    """Recover the integer position t from g(t) by nearest-breakpoint lookup."""
    if not 0.0 < x:
        raise ValueError("signal must be positive")
    sched, rec = weave_schedule(None, t_max)
    return int(PositionDecoder(sched, rec).decode(x))


@dataclass
class PositionRecoveryFF:
    """Feed-forward stand-in writing the decoded position into dimension 3.

    The decoder inverts the first-layer signal schedule of weave (None: no
    weave) over t = 1..t_max.  The output complement is rounding-compensated
    so that adding it back to the sub-layer input yields the integer
    position bit-exactly.
    """

    weave: WeaveParams | None
    t_max: int

    def __post_init__(self) -> None:
        self.decoder = PositionDecoder(*weave_schedule(self.weave, self.t_max))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        x = z[2]
        target = np.asarray(self.decoder.decode(x), dtype=np.float64)
        comp = target - x
        for _ in range(3):
            resid = (comp + x) - target
            if not np.any(resid):
                break
            comp = comp - resid
        out = np.zeros_like(z)
        out[2] = comp
        return out

    def describe(self) -> dict:
        """The saved doc: t_max and the weave's scheme, cap and tread (None without one)."""
        doc = {"kind": "position_recovery", "t_max": self.t_max, "scheme": None, "cap": None, "tread": None}
        if self.weave is not None:
            doc.update(scheme=self.weave.scheme.value, cap=self.weave.cap, tread=self.weave.tread)
        return doc


def recovery_ff_from_doc(doc: dict) -> PositionRecoveryFF:
    """The PositionRecoveryFF whose describe() gave doc."""
    weave = None
    if doc.get("scheme"):
        weave = WeaveParams(scheme=Scheme(doc["scheme"]), cap=doc["cap"], tread=doc["tread"])
    return PositionRecoveryFF(weave, doc["t_max"])


@dataclass
class TheoryModel:
    """A constructed model plus its closed-form oracles."""

    label: str
    weights: ModelWeights
    weave: WeaveParams | None
    cfg: TheoryConfig

    def alpha1(self, ts: np.ndarray) -> np.ndarray:
        """Closed-form final-layer attention weight on the first token at each t.

        Computed directly from the weave: alpha_i = W(t-1) - W(i-1) - W(t-i)
        for keys i = 1..t (all zero for the un-woven models), then a softmax.
        Independent of the transformer plumbing.  Each t must be an integer
        in 1..MAX_SCAN, else a ValueError names the first that is not.

        With j = i-1 and v(d) = e^(c d - W(d)) for any c, each term of the
        softmax denominator e^(alpha_i) is v(j) v(t-1-j) / v(t-1), so

            alpha1(t) = v(t-1) / (v * v)(t-1),

        one self-convolution of v over d = 0..max(ts)-1.  Under an identity
        weave v is all ones and alpha1(t) = 1/t exactly.  c is the smallest
        integer >= 1 with W(d) <= c d (1 for every weave but a leak above
        1), so c d is exact and every v(d) >= 1: no term underflows.  Where
        W(d) <= d the products stay below e^(t-1) <= e^(MAX_SCAN-1), which
        double precision holds; a weave that still overflows (a steep leak
        past a far cap) raises a ValueError naming it.
        """
        ts = np.asarray(ts)
        bad = ts[~((ts >= 1) & (ts <= MAX_SCAN)) | (ts != np.floor(ts))]
        if bad.size:
            raise ValueError(f"each t must be an integer in 1..{MAX_SCAN}, got {bad.tolist()[0]}")
        ts = ts.astype(np.int64)
        t_max = int(np.max(ts))
        w = weave_table(self.weave, t_max)
        d = np.arange(t_max, dtype=np.float64)
        c = math.ceil(np.max(w[1:] / d[1:], initial=1.0))
        with np.errstate(over="ignore"):  # an inf in v is one in vv, as (v * v)(d) >= v(0) v(d) = v(d)
            v = np.exp(c * d - w)
            vv = np.convolve(v, v)[:t_max]
        if not np.all(np.isfinite(vv)):
            raise ValueError(f"alpha1 overflows double precision under {self.weave}")
        return (v / vv)[ts - 1]

    def predict(self, ts: np.ndarray) -> np.ndarray:
        """Closed-form o_t[3] = H + alpha1(t) * M - 1 (equals M/t - 1 + H un-woven)."""
        return self.cfg.threshold + self.alpha1(ts) * self.cfg.window - 1.0

    def run(self, t_max: int | None = None) -> ForwardTrace:
        """forward over t = 1..t_max (cfg.t_max when None), every head's weights kept."""
        t_max = _scan_length(self.cfg, t_max)
        tokens = [1] * (t_max - 1)  # plus <bos> gives columns t = 1..t_max
        return forward(tokens, self.weights, weave=self.weave)


def _scan_length(cfg: TheoryConfig, t_max: int | None) -> int:
    """t_max, or cfg.t_max when it is None; a ValueError below 1."""
    if t_max is None:
        return cfg.t_max
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    return t_max


def _embedding() -> np.ndarray:
    """d x 2 embedding: first dimension all ones, second marks <bos>."""
    w_e = np.zeros((D_MODEL, 2))
    w_e[0, :] = 1.0
    w_e[1, 0] = 1.0
    return w_e


def _value_output_heads(cfg: TheoryConfig) -> tuple[np.ndarray, np.ndarray]:
    """Shared W_V / W_O: value row 1 carries M on <bos>, row 2 carries 1 - H
    everywhere; the output projection writes their difference into dim 3."""
    w_v = np.zeros((D_HEAD, D_MODEL))
    w_v[0, 1] = float(cfg.window)      # reads the <bos> flag
    w_v[1, 0] = 1.0 - cfg.threshold    # reads the all-ones dimension
    w_o = np.zeros((D_MODEL, D_HEAD))
    w_o[2, 0] = 1.0
    w_o[2, 1] = -1.0
    return w_v, w_o


def build_theorem1(cfg: TheoryConfig) -> TheoryModel:
    """One layer, no positional term: all keys identical, so attention is uniform
    and o_t[3] = M/t - 1 + H, crossing the threshold exactly at t = M."""
    w_k = np.zeros((D_HEAD, D_MODEL))
    w_k[:, 0] = 1.0  # every key becomes the all-ones vector
    w_q = np.zeros((D_HEAD, D_MODEL))
    w_v, w_o = _value_output_heads(cfg)
    layer = LayerWeights(heads=[HeadWeights(w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o)], ff=zero_ff(D_MODEL))
    weights = ModelWeights(w_e=_embedding(), layers=[layer], pe_family="dot")
    return TheoryModel(label="nope-threshold", weights=weights, weave=None, cfg=cfg)


def _build_two_layer(cfg: TheoryConfig, weave: WeaveParams | None, label: str) -> TheoryModel:
    """Two layers under the additive unit-slope positional score.

    Layer 1 zeroes queries and keys so the scores are pure woven distances;
    its softmax puts weight g on the first token and the FF stand-in inverts g
    to an integer position in dim 3.  Layer 2 pairs +position on the query
    with -position on the key so the recovered positions cancel against the
    positional term, reducing to the theorem-1 head with alpha_1 in place of 1/t.
    """
    # layer 1: extract position
    w_k1 = np.zeros((D_HEAD, D_MODEL))
    w_q1 = np.zeros((D_HEAD, D_MODEL))
    w_v1 = np.zeros((D_HEAD, D_MODEL))
    w_v1[0, 1] = 1.0  # value picks out the <bos> flag
    w_o1 = np.zeros((D_MODEL, D_HEAD))
    w_o1[2, 0] = 1.0
    w_o1[2, 1] = -1.0
    ff1 = PositionRecoveryFF(weave, cfg.t_max)
    layer1 = LayerWeights(heads=[HeadWeights(w_q=w_q1, w_k=w_k1, w_v=w_v1, w_o=w_o1)], ff=ff1)

    # layer 2: query slot 1 carries +position, key slot 3 carries -position,
    # paired constant slots turn the product into the difference pos_t - pos_i
    w_q2 = np.zeros((D_HEAD, D_MODEL))
    w_q2[0, 2] = 1.0  # +position
    w_q2[2, 0] = 1.0  # constant 1
    w_k2 = np.zeros((D_HEAD, D_MODEL))
    w_k2[0, 0] = 1.0   # constant 1
    w_k2[2, 2] = -1.0  # -position
    w_v2, w_o2 = _value_output_heads(cfg)
    layer2 = LayerWeights(heads=[HeadWeights(w_q=w_q2, w_k=w_k2, w_v=w_v2, w_o=w_o2)], ff=zero_ff(D_MODEL))

    weights = ModelWeights(
        w_e=_embedding(),
        layers=[layer1, layer2],
        pe_family="additive",
        head_slopes=[1.0],
    )
    return TheoryModel(label=label, weights=weights, weave=weave, cfg=cfg)


def build_theorem2(cfg: TheoryConfig) -> TheoryModel:
    """Simple relative PE (score minus raw distance): same crossing at t = M."""
    return _build_two_layer(cfg, None, "pe-threshold")


def build_theorem3(cfg: TheoryConfig) -> TheoryModel:
    """Capped weave on the theorem-2 weights: recovered positions saturate at
    cap+1 and the first attention weight stays above 1/t, rescuing t > M."""
    if cfg.cap >= cfg.window:
        raise ValueError("weave point must sit inside the window (cap < M)")
    weave = WeaveParams(scheme=Scheme.REROPE, cap=cfg.cap)
    return _build_two_layer(cfg, weave, "capped-weave-rescue")


def build_corollary(cfg: TheoryConfig) -> TheoryModel:
    """Staircase weave on the theorem-2 weights.

    The rescue (o_t > H and alpha_1 > 1/t) holds on (M, scan_cap(M, N,
    tread=E)], i.e. up to M * e^(N - ceil(N/E)) / 2 (derivation in scan_cap).
    Tread 1 adds one unit per raw step, i.e. it is the identity weave: alpha_1
    equals 1/t exactly, the model reduces to theorem 2 and crosses at t = M,
    and that ceiling M/2 leaves no rescue range.
    """
    if cfg.cap >= cfg.window:
        raise ValueError("weave point must sit inside the window (cap < M)")
    weave = WeaveParams(scheme=Scheme.STAIR, cap=cfg.cap, tread=cfg.tread)
    return _build_two_layer(cfg, weave, "stair-weave-rescue")


@dataclass
class ThresholdReport:
    """Observed vs closed-form designated hidden value per position."""

    label: str
    threshold: float
    ts: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray
    crossing: int | None          # first t with observed <= H (within 1e-9)
    max_abs_err: float

    @property
    def verdicts(self) -> np.ndarray:
        """True where the value stays strictly above the threshold."""
        return self.observed > self.threshold

    @property
    def agrees(self) -> bool:
        return self.max_abs_err <= SCAN_TOL

    def to_csv(self) -> str:
        lines = ["t,observed,predicted,verdict"]
        for t, o, p, v in zip(self.ts, self.observed, self.predicted, self.verdicts):
            lines.append(f"{t},{o:.12g},{p:.12g},{'success' if v else 'fail'}")
        return "\n".join(lines) + "\n"


def threshold_scan(model: TheoryModel, t_max: int | None = None) -> ThresholdReport:
    """Run the forward pass for t = 1..t_max (cfg.t_max when None) and
    compare against the closed form.

    The pass keeps no n x n head weights, since the scan reads only the
    last layer's output.
    """
    t_max = _scan_length(model.cfg, t_max)
    ts = np.arange(1, t_max + 1)
    predicted = model.predict(ts)
    trace = _forward([1] * (t_max - 1), model.weights, model.weave, None, alphas=None)  # model.run's pass
    observed = trace.attn[-1][WATCH_DIM, :]
    err = float(np.max(np.abs(observed - predicted)))
    below = np.nonzero(observed <= model.cfg.threshold + 1e-9)[0]
    crossing = int(ts[below[0]]) if below.size else None
    return ThresholdReport(
        label=model.label,
        threshold=model.cfg.threshold,
        ts=ts,
        observed=observed,
        predicted=predicted,
        crossing=crossing,
        max_abs_err=err,
    )


def scan_cap(window: int, cap: int, t_max: int = MAX_SCAN, *, tread: int | None = None) -> int:
    """Scan ceiling used by the rescue checks.

    Capped weave (no tread): min(t_max, M * e^N / 2).  Its layer-2 score is
    alpha_i = W(t-1) - W(i-1) - W(t-i) = -N for every key i with both
    distances i-1 and t-i at least N, so the denominator of alpha_1 grows like
    t * e^-N and stays below M up to about M * e^N / 2.

    Staircase with tread E: min(t_max, M * e^(N - ceil(N/E)) / 2).  Writing
    i-1 = N + x and t-i = N + y, the same score is
    -N + ceil((x+y+N)/E) - ceil(x/E) - ceil(y/E), whose largest value is
    -(N - ceil(N/E)) (at x = y = 0, by subadditivity of ceil).  The keys
    within N of either end number at most 2N and score at most 0, a fixed
    amount that does not grow with t.  Tread 1 gives M/2 < M: no rescue range.
    """
    exponent = cap if tread is None else cap - math.ceil(cap / tread)
    return int(min(t_max, window * math.exp(exponent) / 2.0))


def build_position_decoder_mlp(t_max: int = 64) -> DenseFF:
    """An actual ReLU network realizing the position decoder on t <= t_max.

    Uses the constant dimension (hidden dim 1 is always 1) as a bias source.
    decode(x) = 1 + sum of steep ramps that switch between consecutive
    breakpoints g(t), each over a tenth of its gap; the output complement is
    decode(x) - x so the residual path reconstructs the integer position.
    Demonstrates that the breakpoint-lookup stand-in is MLP-realizable; not
    used by the scans.
    """
    g = bos_weight(np.arange(1, t_max + 1, dtype=np.float64))
    cols: list[np.ndarray] = []
    coefs: list[float] = []

    def unit(const: float, xcoef: float, out_coef: float) -> None:
        c = np.zeros(D_MODEL)
        c[0] = const    # reads the all-ones dimension
        c[2] = xcoef    # reads the signal dimension
        cols.append(c)
        coefs.append(out_coef)

    # identity pair: relu(x) - relu(-x) = x, contributed with weight -1
    unit(0.0, 1.0, -1.0)
    unit(0.0, -1.0, 1.0)
    # constant 1 (base position)
    unit(1.0, 0.0, 1.0)
    # one ramp per step t-1 -> t, switching inside the gap (g(t), g(t-1))
    for t in range(2, t_max + 1):
        hi, lo = g[t - 2], g[t - 1]
        width = 0.1 * (hi - lo)
        mid = 0.5 * (hi + lo)
        # (relu(mid + w/2 - x) - relu(mid - w/2 - x)) / w : 0 above the gap, 1 below
        unit(mid + width / 2.0, -1.0, 1.0 / width)
        unit(mid - width / 2.0, -1.0, -1.0 / width)

    w1 = np.stack(cols, axis=1)  # (d, units)
    w2 = np.zeros((D_MODEL, w1.shape[1]))
    w2[2, :] = np.asarray(coefs)
    return DenseFF(w1=w1, w2=w2)
