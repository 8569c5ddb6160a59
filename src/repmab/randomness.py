"""Deterministic, label-addressed uniform random streams.

Every consumer of randomness in this package addresses its draws by a
structured label instead of by position in a shared sequence.  Deriving
the same (root seed, label) pair therefore yields the identical stream
of uniforms in any process, in any derivation order, which is what makes
whole simulations replay-invariant: fixing the algorithm-side seed pins
every algorithm-side draw no matter how the environment realizations
branch the control flow.

The generator is counter-mode integer mixing (the splitmix64 finalizer).
A stream key is derived by absorbing the label words one at a time, so
key derivation is a pure function of (seed, label); stream values are a
pure function of (key, counter).

Absorbing a field mixes its value into a word and then mixes that word
into the state, so both halves can be shared.  ``field_words`` mixes the
words of a field once, as a table; ``label_states`` absorbs the label
prefix (purpose, epoch, arm, cons) over a grid of its fields;
``absorb_words`` and ``finish_uniforms`` absorb word tables into states
and read the first uniform.  ``first_uniforms`` is the composition for
a whole label grid.
Trials tabulate the prefixes and words they reuse, so a draw costs one
absorb and one final mix, both in place through one temporary array.
The round words of rounds 1..T are one read-only table per horizon,
``round_words(T)``, shared by every trial at that horizon.

A first uniform is n / 2^53 for the 53-bit integer n that
``finish_bits`` returns.  Both n / 2^53 and μ · 2^53 are exact, so a
Bernoulli(μ) signal ``u < μ`` is realized exactly by the integer
compare ``n < ceil(μ · 2^53)``, with a threshold computed once per
table of means; μ = 0 never fires and μ = 1 always does.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomSource",
    "StreamLabel",
    "UniformStream",
    "absorb_words",
    "field_words",
    "finish_bits",
    "finish_uniforms",
    "first_uniforms",
    "label_states",
    "round_words",
    "validate_strategy",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_DOMAIN = 0xD6E8FEB86659FD93
_NONE_WORD = _MASK64
_TWO53 = float(1 << 53)
SIMPLEX_TOL = 1e-9

_U64 = np.uint64
_U11, _U27, _U30, _U31 = _U64(11), _U64(27), _U64(30), _U64(31)
_U_GOLDEN, _U_DOMAIN = _U64(_GOLDEN), _U64(_DOMAIN)
_U_M1, _U_M2 = _U64(_MIX_M1), _U64(_MIX_M2)


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on python ints (exact mod-2^64 arithmetic)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return z ^ (z >> 31)


def _absorb_int(state: int, word: int) -> int:
    return _mix_int(((state + _GOLDEN) & _MASK64) ^ _mix_int(word ^ _DOMAIN))


def _mix_u64(z):
    """Vectorized twin of _mix_int: mixes a uint64 ndarray in place
    through one temporary and returns it.  A numpy scalar is mixed as a
    0-d array and given back as a new numpy scalar.

    Wraps mod 2^64 like _mix_int, on arrays only, so it never warns.
    """
    a = z if isinstance(z, np.ndarray) else np.array(z, dtype=np.uint64)
    tmp = np.right_shift(a, _U30, out=np.empty_like(a))
    a ^= tmp
    a *= _U_M1
    np.right_shift(a, _U27, out=tmp)
    a ^= tmp
    a *= _U_M2
    np.right_shift(a, _U31, out=tmp)
    a ^= tmp
    return a if a is z else a[()]


def _purpose_word(purpose: str) -> int:
    word = _PURPOSE_CACHE.get(purpose)
    if word is None:
        if not purpose:
            raise ValueError("stream label purpose must be a nonempty string")
        digest = hashlib.sha256(purpose.encode("utf-8")).digest()
        word = int.from_bytes(digest[:8], "big")
        _PURPOSE_CACHE[purpose] = word
    return word


_PURPOSE_CACHE: dict[str, int] = {}


def _field_word(value: int | None, name: str) -> int:
    if value is None:
        return _NONE_WORD
    value = int(value)
    if value < 0 or value >= (1 << 63):
        raise ValueError(f"stream label field {name!r} out of range: {value}")
    return value


@dataclass(frozen=True)
class StreamLabel:
    """Structured key naming one substream.

    Fields that do not apply are left as None; a fully specified label is
    one whose applicable fields are all set (wildcards are not a concept
    here, None is a concrete part of the key).
    """

    purpose: str
    epoch: int | None = None
    arm: int | None = None
    cons: int | None = None
    rnd: int | None = None

    def words(self) -> tuple[int, int, int, int, int]:
        return (
            _purpose_word(self.purpose),
            _field_word(self.epoch, "epoch"),
            _field_word(self.arm, "arm"),
            _field_word(self.cons, "cons"),
            _field_word(self.rnd, "rnd"),
        )


class UniformStream:
    """Stateful reader over one labeled stream of uniforms in [0, 1).

    Value-like: instances are cheap, independent, and never share state.
    The n-th value depends only on (key, n), so readers at the same key
    always observe the same sequence.
    """

    __slots__ = ("_key", "_count")

    def __init__(self, key: int):
        self._key = key & _MASK64
        self._count = 0

    def _raw(self, index: int) -> int:
        return _mix_int((self._key + (index + 1) * _GOLDEN) & _MASK64)

    def next_raw64(self) -> int:
        """Next raw 64-bit word (used for deriving child seeds)."""
        value = self._raw(self._count)
        self._count += 1
        return value

    def next_uniform(self) -> float:
        return (self.next_raw64() >> 11) / _TWO53


@dataclass(frozen=True)
class RandomSource:
    """Root of a family of labeled substreams.

    Algorithm randomness and environment randomness use separate root
    seeds so paired-replicability trials can fix one while redrawing the
    other.
    """

    root_seed: int

    def __post_init__(self) -> None:
        seed = self.root_seed
        if not isinstance(seed, int) or seed < 0 or seed > _MASK64:
            raise ValueError("root_seed must be an unsigned 64-bit integer")

    def _root_state(self) -> int:
        return _mix_int(self.root_seed ^ _DOMAIN)

    def derive_stream(self, label: StreamLabel) -> UniformStream:
        """Return the stream addressed by ``label``.

        Pure in (root_seed, label): repeated derivations are independent
        readers of the same underlying sequence.
        """
        state = self._root_state()
        for word in label.words():
            state = _absorb_int(state, word)
        return UniformStream(state)

    def uniform(self, label: StreamLabel) -> float:
        """First uniform of the labeled stream (one-shot draws)."""
        return self.derive_stream(label).next_uniform()


def field_words(value, name: str):
    """Mixed word(s) of one label field: the half of an absorb that
    depends only on the field's value.

    Scalars (and None, the unset field) give a numpy uint64; arrays give
    a uint64 array of the same shape.  A table of these, mixed once, can
    be reused for every label that carries the same field values.
    """
    if value is None or isinstance(value, (int, np.integer)):
        return _U64(_mix_int(_field_word(value, name) ^ _DOMAIN))
    # negative entries wrap to 2^63 and above
    word = np.asarray(value).astype(np.uint64)
    if word.size and word.max() >= (1 << 63):
        raise ValueError(f"stream label field {name!r} out of range")
    return _mix_u64(word ^ _U_DOMAIN)


def absorb_words(states, words) -> np.ndarray:
    """Absorb pre-mixed field words into stream states (broadcasting).

    States may be python ints.  The result is a fresh uint64 array of
    the broadcast shape (0-d when both are scalars), mixed in place.
    The golden offset is added over the states' shape, so the result is
    the only array allocated at its full size.
    """
    states = np.asarray(states, dtype=np.uint64)
    z = np.add(states, _U_GOLDEN, out=np.empty_like(states))
    if np.broadcast(z, words).shape == z.shape:
        z ^= words
    else:  # the words widen the grid
        z = z ^ words
    return _mix_u64(z)


def finish_bits(states, words) -> np.ndarray:
    """Absorb one last field of pre-mixed words, then read the 53-bit
    integer n of each stream's first uniform n / 2^53 (its counter-1
    value).  Broadcasting as in ``absorb_words``.  A Bernoulli(μ) signal
    is ``n < ceil(μ · 2^53)``, exactly ``u < μ`` (module docstring)."""
    raw = absorb_words(states, words)
    raw += _U_GOLDEN
    _mix_u64(raw)
    raw >>= _U11
    return raw


def finish_uniforms(states, words) -> np.ndarray:
    """The first uniform of each stream, as ``finish_bits`` / 2^53."""
    u = finish_bits(states, words).astype(np.float64)
    u /= _TWO53
    return u


@functools.lru_cache(maxsize=1)
def round_words(horizon: int) -> np.ndarray:
    """Read-only table of the ``rnd`` field words of rounds 1..horizon.

    Every trial at one horizon reads the same table, so the trials of a
    batch, a pair or a benchmark run hash it once; only the last horizon
    asked for is kept (8 bytes a round).
    """
    words = field_words(np.arange(1, horizon + 1), "rnd")
    words.flags.writeable = False
    return words


_PREFIX_FIELDS = ("epoch", "arm", "cons")


def label_states(
    source: RandomSource,
    purpose: str,
    *,
    epoch: int | np.ndarray | None = None,
    arm: int | np.ndarray | None = None,
    cons: int | np.ndarray | None = None,
):
    """Stream states after absorbing the label prefix (purpose, epoch,
    arm, cons), over the broadcast grid of the array-valued fields.

    Scalar fields ahead of the first array field are absorbed on python
    ints, so an all-scalar prefix gives a python int.  Finishing the
    prefix with the ``rnd`` word through ``finish_uniforms`` gives the
    label's first uniform.
    """
    state = _absorb_int(source._root_state(), _purpose_word(purpose))
    fields = tuple(zip((epoch, arm, cons), _PREFIX_FIELDS))
    for i, (value, name) in enumerate(fields):
        if value is not None and not isinstance(value, (int, np.integer)):
            break
        state = _absorb_int(state, _field_word(value, name))
    else:
        return state
    state = np.asarray(state, dtype=np.uint64)
    for value, name in fields[i:]:
        state = absorb_words(state, field_words(value, name))
    return state


def first_uniforms(
    source: RandomSource,
    purpose: str,
    *,
    epoch: int | np.ndarray | None = None,
    arm: int | np.ndarray | None = None,
    cons: int | np.ndarray | None = None,
    rnd: int | np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized first-uniform over a grid of labels.

    Array-valued fields broadcast against each other; the result holds,
    for every label in the broadcast, exactly the value that
    ``source.derive_stream(label).next_uniform()`` would return.  It is
    ``label_states`` for the (purpose, epoch, arm, cons) prefix finished
    with the ``rnd`` words; callers that draw many labels sharing a
    prefix keep the states and the words as tables instead.
    """
    states = label_states(source, purpose, epoch=epoch, arm=arm, cons=cons)
    return finish_uniforms(states, field_words(rnd, "rnd"))


def validate_strategy(x: np.ndarray) -> np.ndarray:
    """Check that x is a point of the probability simplex (within SIMPLEX_TOL)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("strategy must be a nonempty 1-d vector")
    if (x < 0.0).any():
        raise ValueError("strategy has negative entries")
    total = float(np.cumsum(x)[-1])
    if not abs(total - 1.0) <= SIMPLEX_TOL:  # NaN fails this too
        raise ValueError(f"strategy entries sum to {total!r}, not 1")
    return x


def index_from_cdf(cdf, u):
    """Inverse-CDF lookup of one uniform or an array of them.

    cdf holds cumulative sums in ascending arm order.  The draw goes to
    the lowest arm whose cumulative sum reaches u and that carries
    positive mass: boundary ties resolve to the lower arm, and u == 0
    skips leading zero-mass arms.  If rounding left the final cumulative
    sum short of 1 and u lands in the gap, the draw goes to the last arm
    carrying positive mass.  Returns an int for scalar u, else an array.
    """
    cdf = np.asarray(cdf, dtype=np.float64)
    first = np.searchsorted(cdf, 0.0, side="right")
    rises = np.flatnonzero(cdf[1:] != cdf[:-1])
    last = int(rises[-1]) + 1 if rises.size else 0
    a = np.minimum(np.maximum(np.searchsorted(cdf, u, side="left"), first), last)
    return int(a) if np.ndim(u) == 0 else a
