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
words of a field once, as a table; ``label_states`` absorbs a label
prefix over a grid of leading fields; ``absorb_words`` and
``finish_uniforms`` absorb word tables into states and read the first
uniform.  ``first_uniforms`` is the composition for a whole label grid.
Trials tabulate the prefixes and words they reuse, so a draw costs one
absorb and one final mix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomSource",
    "StreamLabel",
    "UniformStream",
    "absorb_words",
    "field_words",
    "finish_uniforms",
    "first_uniforms",
    "label_states",
    "sample_categorical",
    "validate_strategy",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_DOMAIN = 0xD6E8FEB86659FD93
_NONE_WORD = _MASK64
_TWO53 = float(1 << 53)

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


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized twin of _mix_int: mixes a fresh uint64 ndarray in
    place and returns it (a numpy scalar is rebound instead).

    Wraps mod 2^64 like _mix_int; callers on numpy scalars silence the
    overflow warning with ``np.errstate(over="ignore")``.
    """
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


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

    def __init__(self, key: int, count: int = 0):
        self._key = key & _MASK64
        self._count = count

    def _raw(self, index: int) -> int:
        return _mix_int((self._key + (index + 1) * _GOLDEN) & _MASK64)

    def next_raw64(self) -> int:
        """Next raw 64-bit word (used for deriving child seeds)."""
        value = self._raw(self._count)
        self._count += 1
        return value

    def next_uniform(self) -> float:
        return (self.next_raw64() >> 11) / _TWO53

    def next_block(self, n: int) -> np.ndarray:
        """Next n uniforms as a float64 array."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            raw = _mix_u64(np.asarray(self._key, dtype=np.uint64) + idx * _U_GOLDEN)
        self._count += n
        return (raw >> _U11).astype(np.float64) / _TWO53

    def copy(self) -> "UniformStream":
        return UniformStream(self._key, self._count)


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

    States may be python ints.  When states and words are both scalars
    the arithmetic is numpy scalar arithmetic, whose intended mod-2^64
    wrap-around warns unless the caller enters
    ``np.errstate(over="ignore")``.
    """
    return _mix_u64((np.asarray(states, dtype=np.uint64) + _U_GOLDEN) ^ words)


def finish_uniforms(states, words) -> np.ndarray:
    """Absorb one last field of pre-mixed words, then read each stream's
    first uniform (its counter-1 value).  Scalars as in
    ``absorb_words``."""
    raw = absorb_words(states, words)
    raw += _U_GOLDEN
    raw = _mix_u64(raw)
    raw >>= _U11
    u = raw.astype(np.float64)
    u /= _TWO53
    return u


_PREFIX_FIELDS = ("epoch", "arm", "cons")


def label_states(
    source: RandomSource,
    purpose: str,
    *,
    epoch: int | np.ndarray | None = None,
    arm: int | np.ndarray | None = None,
    cons: int | np.ndarray | None = None,
    through: str = "cons",
):
    """Stream states after absorbing the label prefix (purpose, epoch,
    arm, cons), over the broadcast grid of the array-valued fields.

    ``through`` names the last field absorbed ("purpose", "epoch",
    "arm" or "cons"); the fields after it are left for the caller to
    absorb from tables of ``field_words``.  Scalar fields ahead of the
    first array field are absorbed on python ints, so an all-scalar
    prefix gives a python int.  Finishing a full prefix with the ``rnd``
    word through ``finish_uniforms`` gives the label's first uniform.
    """
    depth = 0 if through == "purpose" else _PREFIX_FIELDS.index(through) + 1
    values = (epoch, arm, cons)
    if any(value is not None for value in values[depth:]):
        raise ValueError(f"label fields after {through!r} are absorbed by the caller")
    state = _absorb_int(source._root_state(), _purpose_word(purpose))
    fields = tuple(zip(values, _PREFIX_FIELDS))[:depth]
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
    with np.errstate(over="ignore"):
        states = label_states(source, purpose, epoch=epoch, arm=arm, cons=cons)
        return finish_uniforms(states, field_words(rnd, "rnd"))


def validate_strategy(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check that x is a point of the probability simplex (within tol)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("strategy must be a nonempty 1-d vector")
    if (x < 0.0).any():
        raise ValueError("strategy has negative entries")
    total = float(np.cumsum(x)[-1])
    if abs(total - 1.0) > tol:
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


def sample_categorical(stream: UniformStream, x: np.ndarray) -> int:
    """Sample an arm index from strategy x with one uniform draw.

    The cumulative sums are accumulated in fixed ascending arm order and
    the draw is mapped through the inverse CDF, so equal (stream, x)
    inputs always select the same arm.
    """
    x = validate_strategy(x)
    cdf = np.cumsum(x)
    return index_from_cdf(cdf, stream.next_uniform())
