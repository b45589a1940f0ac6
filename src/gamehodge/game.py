"""Finite strategic-form games in normal form.

A game holds one payoff array per player over the joint strategy space.
Joint strategy profiles are indexed in mixed radix with the *last* player
varying fastest, so ``utilities[m]`` is exactly the C-order flattening of a
payoff tensor of shape ``(h_1, ..., h_M)``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

import numpy as np

from .errors import GameFormatError, NumericError, ShapeError

__all__ = [
    "Game",
    "profile_index",
    "profile_of_index",
    "project_player",
    "normalize",
    "is_normalized",
    "zero_sum_identical_split",
    "game_to_dict",
    "game_from_dict",
    "load_game",
    "save_game",
]


def profile_index(profile: Sequence[int], strategy_counts: Sequence[int]) -> int:
    """Map a strategy profile to its flat index (last player fastest).

    ``idx = ((p_1*h_2 + p_2)*h_3 + ...)``; inverse of :func:`profile_of_index`.
    A coordinate that is not an ``int`` or numpy integer, 1.0 and ``True``
    included, or that is out of range raises ``IndexError``.
    """
    if len(profile) != len(strategy_counts):
        raise ShapeError(
            f"profile has {len(profile)} coordinates, expected {len(strategy_counts)}"
        )
    idx = 0
    for p, h in zip(profile, strategy_counts):
        _check_index(p, h, "strategy index")
        idx = idx * h + p
    return idx


def _check_index(i, size: int, what: str) -> None:
    """``IndexError`` for an ``i`` that is not an ``int`` or numpy integer in ``[0, size)``;
    a ``bool`` is not one."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise IndexError(f"{what} {i!r} is not an integer")
    if not 0 <= i < size:
        raise IndexError(f"{what} {i} out of range [0, {size})")


def profile_of_index(index: int, strategy_counts: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`profile_index`; ``IndexError`` as :func:`profile_index` raises it."""
    _check_index(index, math.prod(strategy_counts), "profile index")
    index = int(index)
    coords = []
    for h in reversed(strategy_counts):
        coords.append(index % h)
        index //= h
    return tuple(reversed(coords))


class Game:
    """Immutable finite game: players, strategy counts and payoff arrays.

    Parameters
    ----------
    utilities : array-like, shape (M, prod(h))
        One flat payoff array per player, in profile-index order.  Payoff
        tensors of shape ``(M, h_1, ..., h_M)`` are accepted and flattened.
    strategy_counts : sequence of int
        Number of strategies per player, all whole numbers >= 1; 3.0 and
        numpy integers are accepted, 2.5 raises :class:`ShapeError`.
    player_names, strategy_labels : optional
        Presentation metadata used by the JSON format; default to
        ``player1..playerM`` and ``"0", "1", ...``.
    """

    def __init__(
        self,
        utilities,
        strategy_counts: Sequence[int],
        player_names: Sequence[str] | None = None,
        strategy_labels: Sequence[Sequence[str]] | None = None,
    ):
        counts = _checked_counts(strategy_counts)
        m = len(counts)
        u = np.asarray(utilities, dtype=float)
        u = _checked_payoffs(u, counts, GameFormatError, "payoffs must be finite")

        if player_names is None:
            player_names = [f"player{k + 1}" for k in range(m)]
        if len(player_names) != m:
            raise GameFormatError("player_names length does not match player count")
        if strategy_labels is None:
            strategy_labels = [[str(i) for i in range(h)] for h in counts]
        labels = [list(map(str, ls)) for ls in strategy_labels]
        if [len(ls) for ls in labels] != list(counts):
            raise GameFormatError("strategy_labels lengths do not match strategy counts")

        u = u.copy()
        u.flags.writeable = False
        self.utilities = u
        self.strategy_counts = counts
        self.num_players = m
        self.num_profiles = u.shape[1]
        self.player_names = tuple(player_names)
        self.strategy_labels = tuple(tuple(ls) for ls in labels)

    # the game's decomposition, stored on it by its first analysis
    # (gamehodge.decompose); no copy of the game, nor any game made from it, holds it
    _decomposition = None

    def __getstate__(self) -> dict:
        """The game's attributes without its decomposition, for pickle and :mod:`copy`."""
        state = vars(self).copy()
        state.pop("_decomposition", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled or copied game; its payoffs are read-only again."""
        self.__dict__.update(state)
        self.utilities.flags.writeable = False

    @classmethod
    def from_payoff_matrices(
        cls,
        A,
        B,
        player_names: Sequence[str] | None = None,
        strategy_labels: Sequence[Sequence[str]] | None = None,
    ) -> "Game":
        """Two-player game from row-player matrix ``A`` and column-player ``B``."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape != B.shape:
            raise ShapeError(f"payoff matrices must share a 2-d shape, got {A.shape} and {B.shape}")
        return cls(np.stack([A, B]), A.shape, player_names, strategy_labels)

    def tensor(self, player: int) -> np.ndarray:
        """Payoff tensor of one player, shape ``(h_1, ..., h_M)`` (read-only view)."""
        _check_index(player, self.num_players, "player index")
        return self.utilities[player].reshape(self.strategy_counts)

    def utility(self, player: int, profile: Sequence[int]) -> float:
        """Payoff of ``player`` at a pure strategy profile."""
        _check_index(player, self.num_players, "player index")
        return float(self.utilities[player, profile_index(profile, self.strategy_counts)])

    def profiles(self) -> Iterable[tuple[int, ...]]:
        """All strategy profiles in index order."""
        return np.ndindex(*self.strategy_counts)

    def with_utilities(self, utilities) -> "Game":
        """Same shape and labels, different payoffs."""
        return Game(utilities, self.strategy_counts, self.player_names, self.strategy_labels)

    def _sharing(self, utilities: np.ndarray) -> "Game":
        """:meth:`with_utilities` without the copy, for a float array the library computed.

        The new game holds ``utilities`` itself and makes it read-only, so
        the caller must never write it through another reference; the shape
        and finiteness checks still run, a non-finite payoff (an overflow)
        raising :class:`NumericError`.  The new game starts with no
        decomposition: it does not share this game's.
        """
        utilities.flags.writeable = False
        game = object.__new__(Game)
        game.__dict__.update(self.__getstate__())
        game.utilities = _checked_payoffs(
            utilities, self.strategy_counts, NumericError, "a computed payoff overflowed"
        )
        return game

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Game)
            and self.strategy_counts == other.strategy_counts
            and np.array_equal(self.utilities, other.utilities)
        )

    def __repr__(self) -> str:
        return f"Game(players={self.num_players}, strategies={self.strategy_counts})"


def _checked_counts(strategy_counts: Iterable[int]) -> tuple[int, ...]:
    """``strategy_counts`` as a tuple of ints, or :class:`ShapeError`.

    Whole numbers of any numeric type (3, 3.0, ``np.int64(3)``) are accepted;
    an empty sequence, a count < 1 or one that is not a whole number is refused,
    and so are more than 62 players: the stacked correlated system reshapes
    rows to ``(h, h) + counts``, and numpy arrays have at most 64 axes.
    """
    given = tuple(strategy_counts)
    try:
        counts = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        counts = None
    if not counts or counts != given or min(counts) < 1:
        raise ShapeError(f"invalid strategy counts {given}")
    if len(counts) > 62:
        raise ShapeError(f"{len(counts)} players exceed the player limit 62")
    return counts


def _node_rows(counts: tuple[int, ...], a) -> np.ndarray:
    """``a`` as a float array, or :class:`ShapeError` unless its last axis holds ``prod(counts)``."""
    a = np.asarray(a, dtype=float)
    n = math.prod(counts)
    if a.shape[-1:] != (n,):
        raise ShapeError(f"node functions must have {n} entries on their last axis")
    return a


def _checked_payoffs(
    u: np.ndarray, counts: tuple[int, ...], nonfinite: type[Exception], message: str
) -> np.ndarray:
    """``u`` as an (M, n) array; GameFormatError if its shape is off, ``nonfinite(message)`` if a payoff."""
    m, n = len(counts), math.prod(counts)
    if u.shape == (m,) + counts:
        u = u.reshape(m, n)
    if u.shape != (m, n):
        raise GameFormatError(
            f"utilities shape {u.shape} does not match {m} players "
            f"x {n} profiles for strategy counts {counts}"
        )
    if not np.isfinite(u).all():
        raise nonfinite(message)
    return u


def project_player(strategy_counts: Sequence[int], player: int, u) -> np.ndarray:
    """Remove the per-opponent-block mean over ``player``'s own strategies.

    This is the orthogonal projection onto the complement of the functions
    that ignore the player's own strategy; it is idempotent and self-adjoint,
    and for a one-strategy player it is identically zero.  The last axis of
    ``u`` holds the ``prod(strategy_counts)`` profiles; leading axes are a
    batch, projected row by row.  It checks the counts, the player and the
    shape of ``u``, then runs :func:`_demean`, the package's one demeaning
    routine, which :func:`normalize`, the decomposition kernel, the Laplacian
    solve and the subspace table call directly on arrays already checked.
    """
    counts = _checked_counts(strategy_counts)
    _check_index(player, len(counts), "player index")
    return _demean(counts, player, _node_rows(counts, u))


def _demean(counts: tuple[int, ...], player: int, u: np.ndarray) -> np.ndarray:
    """:func:`project_player` of float rows ``u``, with no check of counts, player or shape."""
    t = u.reshape(u.shape[:-1] + counts)
    # sum / h is the mean, without the Python-level overhead of ndarray.mean
    mean = t.sum(axis=player - len(counts), keepdims=True) / counts[player]
    return (t - mean).reshape(u.shape)


def normalize(game: Game) -> Game:
    """Unique strategically equivalent game whose own-strategy sums vanish.

    Each player's payoffs go through :func:`project_player`'s unchecked core,
    so the output satisfies ``sum_{p^m} u^m(p^m, p^{-m}) = 0`` while all
    pairwise payoff differences are preserved exactly.
    """
    counts = game.strategy_counts
    return game._sharing(np.stack([_demean(counts, m, u) for m, u in enumerate(game.utilities)]))


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a number >= 0, NaN included."""
    if not tol >= 0:
        raise ValueError("tol must be >= 0")


def _payoff_scale(u: np.ndarray) -> float:
    """``max|u|`` of payoffs ``u``, or 0 for the zero game: the scale of every relative tolerance."""
    return float(np.abs(u).max(initial=0.0))


_TINY = 2.0**-900  # a smaller sum of squares may have lost digits to underflow


def _root_squares(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``a`` along its last axis; the package's one norm.

    A game's norm combines its players' row norms
    (``gamehodge.decompose._game_norm``), so no sum here is weighted.  The
    squares are summed as they are; a row whose sum may have underflowed
    (below ``_TINY``) or overflowed is summed again scaled by the power of
    two of its largest entry, which is exact (Blue 1978, ACM TOMS 4), and
    its root scaled back.  So a norm is 0 only for a zero row and inf only
    when the norm itself overflows.  A norm below 2^-1022 comes only from
    subnormal entries and may have lost bits with them.
    """
    total = np.einsum("...i,...i->...", a, a)
    sums = total.ravel().tolist()  # cheaper than numpy here
    if not sums or (_TINY <= min(sums) and max(sums) < math.inf) or not a.any():
        return np.sqrt(total)  # no rows, or zero rows with norms 0
    e = np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1]
    scaled = np.ldexp(a, -e)
    with np.errstate(over="ignore"):  # a norm past the float maximum is inf
        rescued = np.ldexp(np.sqrt(np.einsum("...i,...i->...", scaled, scaled)), e[..., 0])
    return np.where(~(total >= _TINY) | (total == math.inf), rescued, np.sqrt(total))


def is_normalized(game: Game, tol: float = 1e-9) -> bool:
    """True iff every per-player, per-opponent-block payoff sum is within ``tol * max|u|`` of 0."""
    _check_tol(tol)
    bound = tol * _payoff_scale(game.utilities)
    return all(np.abs(game.tensor(m).sum(axis=m)).max() <= bound for m in range(game.num_players))


def zero_sum_identical_split(game: Game) -> tuple[Game, Game]:
    """Split a two-player game into zero-sum plus identical-interest parts.

    Returns ``(Z, I)`` with payoffs ``((u1-u2)/2, (u2-u1)/2)`` and
    ``((u1+u2)/2, (u1+u2)/2)``; they sum back to the input.
    """
    if game.num_players != 2:
        raise ShapeError("zero-sum / identical-interest split requires exactly two players")
    u1, u2 = game.utilities
    z = game._sharing(np.stack([(u1 - u2) / 2, (u2 - u1) / 2]))
    i = game._sharing(np.stack([(u1 + u2) / 2, (u1 + u2) / 2]))
    return z, i


# ---------------------------------------------------------------------------
# JSON game format:
# { "players": [ { "name": str, "strategies": [str, ...] }, ... ],
#   "utilities": [ [float, ...], ... ] }
# utilities[m] has length prod(h) in profile-index order (last player fastest).
# ---------------------------------------------------------------------------


def _game_document(game: Game, rows=np.asarray) -> dict:
    """The JSON game format of ``game``, its payoffs as ``rows(game.utilities)``."""
    names, labels = game.player_names, game.strategy_labels
    players = [{"name": name, "strategies": list(ls)} for name, ls in zip(names, labels)]
    return {"players": players, "utilities": rows(game.utilities)}


def game_to_dict(game: Game) -> dict:
    return _game_document(game, np.ndarray.tolist)


def game_from_dict(data: dict) -> Game:
    if not isinstance(data, dict):
        raise GameFormatError("game document must be a JSON object")
    players = data.get("players")
    utilities = data.get("utilities")
    if not isinstance(players, list) or not players:
        raise GameFormatError('"players" must be a non-empty list')
    if not isinstance(utilities, list) or len(utilities) != len(players):
        raise GameFormatError('"utilities" must list one payoff array per player')

    names, labels, counts = [], [], []
    for entry in players:
        if not isinstance(entry, dict) or "strategies" not in entry:
            raise GameFormatError("each player needs a strategies list")
        strategies = entry["strategies"]
        if not isinstance(strategies, list) or not strategies:
            raise GameFormatError("each player needs at least one strategy")
        names.append(str(entry.get("name", f"player{len(names) + 1}")))
        labels.append([str(s) for s in strategies])
        counts.append(len(strategies))

    n = math.prod(counts)
    for m, row in enumerate(utilities):
        if not isinstance(row, list) or len(row) != n:
            raise GameFormatError(
                f"utilities[{m}] must have length {n} for strategy counts {tuple(counts)}"
            )
        if not set(map(type, row)) <= {int, float}:  # JSON numbers only: no bool, no str
            raise GameFormatError(f"utilities[{m}] contains a non-numeric entry")
    try:
        u = np.array(utilities, dtype=float)
    except OverflowError as exc:  # an int beyond the float range, as 1e400 is
        raise GameFormatError("payoffs must be finite") from exc
    return Game(u, counts, names, labels)


def _reject_constant(token: str):
    raise GameFormatError(f"non-finite number {token!r} in game file")


def _parse_int(token: str):
    """A JSON integer as an int, or as ``float(token)`` (+-inf) past the float range.

    A finite float has at most 309 integer digits, so a token of more than
    310 characters, a sign included, is infinite as a float; reading it as
    one skips Python's integer digit limit, and the payoff check then
    rejects it as non-finite.
    """
    return float(token) if len(token) > 310 else int(token)


def _read_json(path, parse_int=int):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant, parse_int=parse_int)


def load_game(path) -> Game:
    """Read a game from a JSON file; rejects malformed or non-finite payoffs."""
    try:
        try:
            data = _read_json(path)
        except ValueError as exc:
            if type(exc) is not ValueError:  # JSONDecodeError, UnicodeDecodeError
                raise
            # an integer past Python's digit limit.  The file is read again
            # with _parse_int, not every file with it: a Python call per
            # integer token doubles the parse of integer payoffs
            data = _read_json(path, _parse_int)
    except OSError as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise GameFormatError(f"invalid JSON in {path}: {exc}") from exc
    return game_from_dict(data)


def save_game(game: Game, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(_game_document(game), repr))
        fh.write("\n")


_CHUNK = 1 << 16  # numbers or arrows per piece of exported text: bounds the strings held


def _json_pieces(obj, number, indent: str = "\n"):
    """The text of ``json.dumps(obj, indent=2)`` in pieces, each finite float as ``number(x)``.

    ``obj`` nests dicts, lists, tuples, iterators, numpy arrays and JSON scalars, and each
    value in it is formatted once.  A scalar is one piece, and so is a flat, non-empty list
    of Python ints (a profile); a 1-d array is written ``_CHUNK`` numbers at a time; any
    other value is its brackets, separators and keys around the pieces of its items, read
    an item at a time, so an iterator is never held as a list.
    """
    if isinstance(obj, float) and math.isfinite(obj):
        yield number(float(obj))  # numpy.float64 too, as json.dumps reads it
    elif isinstance(obj, (float, int, str)) or obj is None:
        yield json.dumps(obj)
    elif type(obj) is list and obj and all(type(v) is int for v in obj):
        inner = indent + "  "
        yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        sep = "," + indent + "  "
        for start in range(0, obj.size, _CHUNK):
            part = obj[start:start + _CHUNK]
            plain = part.dtype.kind == "f" and np.isfinite(part).all()
            text = number if plain else lambda x: next(_json_pieces(x, number))
            yield ("[" + indent + "  " if start == 0 else sep) + sep.join(map(text, part.tolist()))
        yield indent + "]" if obj.size else "[]"
    elif isinstance(obj, (dict, list, tuple, np.ndarray, Iterator)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        inner = indent + "  "
        sep = brackets[0] + inner
        for key, value in obj.items() if brackets == "{}" else ((None, v) for v in obj):
            yield sep if key is None else sep + _quote(key) + ": "
            yield from _json_pieces(value, number, inner)
            sep = "," + inner
        yield indent + brackets[1] if sep[0] == "," else brackets
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
