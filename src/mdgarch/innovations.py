"""Innovation distributions and reproducible random streams.

Every supported innovation law has mean zero and unit variance by
construction, and a finite fourth-plus moment so that the centered
squared innovation xi = eps^2 - 1 obeys a CLT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

#: Student-t degrees of freedom must exceed this so E|eps|^{4.5} exists
#: with margin (guarantees a fourth-plus-delta moment with delta = 0.5).
STUDENT_T_MIN_DF = 4.5


class InvalidInnovationSpec(ValueError):
    pass


@dataclass(frozen=True)
class RngStream:
    """Splittable stream identity: (master_seed, stream_index).

    Distinct stream indices under the same master seed give independent,
    reproducible generators (numpy SeedSequence key hashing).
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.stream_index])


# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list:
    """value as little-endian uint32 words, as SeedSequence splits it."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _SeedState:
    """A seed sequence whose state is already generated: PCG64 reads it
    through ``generate_state`` (registered as an ``ISeedSequence`` by
    stream_generators)."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def _pcg64_states(master_seed: int, first: int, count: int) -> np.ndarray:
    """SeedSequence([master_seed, first + i]).generate_state(4, uint64)
    for i < count, as a (count, 4) array; first .. first + count - 1 must
    share all but their lowest 32-bit word."""
    u32 = np.uint32
    low = np.arange(first & _MASK32, (first & _MASK32) + count,
                    dtype=np.uint64).astype(u32)
    # uint32 arrays wrap silently (numpy scalars would warn)
    entropy = [np.full(count, w, dtype=u32) for w in _words(master_seed)]
    entropy += [low] + [np.full(count, w, dtype=u32)
                        for w in _words(first)[1:]]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(count, dtype=u32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((count, 8), dtype=u32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state[:, i] = value ^ (value >> u32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def stream_generators(master_seed: int, first: int,
                      count: int) -> List[np.random.Generator]:
    """[RngStream(master_seed, first + i).generator() for i < count], bit
    for bit, from one vectorized pass of numpy's SeedSequence hash over
    each run of indices that share their upper 32-bit words."""
    # numpy.random (15 ms to import) loads on first use, not with mdgarch
    from numpy.random.bit_generator import ISeedSequence

    if first < 0 or count < 0:
        raise ValueError("stream indices must be non-negative")
    _words(master_seed)   # a negative seed raises, as in SeedSequence
    ISeedSequence.register(_SeedState)
    gens: List[np.random.Generator] = []
    stop = first + count
    while first < stop:
        end = min(stop, (first | _MASK32) + 1)
        gens += [np.random.Generator(np.random.PCG64(_SeedState(row)))
                 for row in _pcg64_states(master_seed, first, end - first)]
        first = end
    return gens


@dataclass(frozen=True)
class InnovationSpec:
    """Distribution of the i.i.d. innovations eps_t.

    kind is one of ``standard-normal``, ``student-t-normalized`` (with
    ``df``), or ``two-point-mixture``.  The mixture is parameterized on
    magnitudes: eps = +-a with probability w, +-b with probability 1-w,
    signs symmetric, so the mean is zero by construction; unit variance
    requires w*a^2 + (1-w)*b^2 = 1.
    """

    kind: str
    df: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    w: Optional[float] = None

    def to_config(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "student-t-normalized":
            out["df"] = self.df
        elif self.kind == "two-point-mixture":
            out.update({"a": self.a, "b": self.b, "w": self.w})
        return out

    @staticmethod
    def from_config(cfg: dict) -> "InnovationSpec":
        return InnovationSpec(kind=cfg["kind"], df=cfg.get("df"),
                              a=cfg.get("a"), b=cfg.get("b"), w=cfg.get("w"))


def validate_spec(spec: InnovationSpec) -> InnovationSpec:
    """Check the moment conditions analytically; raise if violated."""
    if spec.kind == "standard-normal":
        return spec
    if spec.kind == "student-t-normalized":
        if spec.df is None:
            raise InvalidInnovationSpec("student-t-normalized requires df")
        if not STUDENT_T_MIN_DF < spec.df < np.inf:
            raise InvalidInnovationSpec(
                f"fourth-plus-delta moment not guaranteed: need finite df > "
                f"{STUDENT_T_MIN_DF}, got {spec.df}")
        return spec
    if spec.kind == "two-point-mixture":
        if spec.a is None or spec.b is None or spec.w is None:
            raise InvalidInnovationSpec("two-point-mixture requires a, b, w")
        if not 0.0 < spec.w < 1.0:
            raise InvalidInnovationSpec("mixture weight must lie in (0, 1)")
        m2 = spec.w * spec.a ** 2 + (1.0 - spec.w) * spec.b ** 2
        if not abs(m2 - 1.0) <= 1e-12:     # NaN included
            raise InvalidInnovationSpec(
                f"unit variance violated: w*a^2 + (1-w)*b^2 = {m2!r}")
        if spec.a ** 2 == spec.b ** 2:
            raise InvalidInnovationSpec("Var(eps^2) = 0: degenerate two-point spec")
        return spec
    raise InvalidInnovationSpec(f"unknown innovation kind {spec.kind!r}")


def _t_scale(df: float) -> float:
    # rescales a standard t to unit variance exactly
    return np.sqrt((df - 2.0) / df)


def fourth_moment(spec: InnovationSpec) -> float:
    """E eps^4, analytically."""
    validate_spec(spec)
    if spec.kind == "standard-normal":
        return 3.0
    if spec.kind == "student-t-normalized":
        df = spec.df
        return 3.0 * (df - 2.0) / (df - 4.0)
    return spec.w * spec.a ** 4 + (1.0 - spec.w) * spec.b ** 4


def xi_second_moment(spec: InnovationSpec) -> float:
    """E xi^2 = Var(eps^2) = E eps^4 - 1 for a validated spec."""
    return fourth_moment(spec) - 1.0


def sample_innovations(spec: InnovationSpec, count: int,
                       stream: Union[RngStream, np.random.Generator],
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw ``count`` i.i.d. innovations, deterministic in the stream.

    ``stream`` is a stream identity (drawn from its start) or a live
    generator (drawn from where it stands).  Each law consumes its
    generator one innovation at a time, so drawing a stream in blocks
    of any sizes gives the bytes of one call.  With ``out`` (a float64
    array of shape (count,)) the draws are written there, with the same
    bytes, and ``out`` is returned.
    """
    validate_spec(spec)
    if count < 1:
        raise ValueError("count must be >= 1")
    if out is not None and out.shape != (count,):
        raise ValueError(f"out has shape {out.shape}, need ({count},)")
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    if spec.kind == "standard-normal":
        if out is None:
            return rng.standard_normal(count)
        # sized by out: numpy's size handling holds the GIL about 0.6 us
        # longer a call, and the harness draws every row block this way
        return rng.standard_normal(out=out)
    if spec.kind == "student-t-normalized":
        return np.multiply(rng.standard_t(spec.df, size=count),
                           _t_scale(spec.df), out=out)
    # one (magnitude, sign) pair of uniforms per innovation
    u = rng.random((count, 2))
    mags = np.where(u[:, 0] < spec.w, abs(spec.a), abs(spec.b))
    return np.multiply(mags, np.where(u[:, 1] < 0.5, -1.0, 1.0), out=out)


def innovation_cdf(spec: InnovationSpec):
    """Reference CDF of the innovation law, for goodness-of-fit tests.

    Only continuous kinds have a usable CDF; the two-point mixture is
    rejected since a KS comparison against a step CDF is meaningless.
    """
    validate_spec(spec)
    if spec.kind == "standard-normal":
        from .limits import normal_cdfs

        return normal_cdfs
    if spec.kind == "student-t-normalized":
        from scipy.special import stdtr

        df, s = spec.df, _t_scale(spec.df)
        return lambda x: stdtr(df, np.asarray(x) / s)
    raise InvalidInnovationSpec(
        "two-point-mixture has no continuous CDF for KS testing")
