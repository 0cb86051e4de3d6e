"""Trace and signature of the symmetric tridiagonal matrix of a word.

A word (a_1, ..., a_k) gives the k x k symmetric matrix M with diagonal
a_1, ..., a_k and unit off-diagonals.  km_phi evaluates

    trace(M) - 3 signature(M),

which equals the Rademacher symbol of the reconstructed product (tested
exhaustively).  The signature comes from the signs of the leading
principal minors (Sylvester's law of inertia, as in Kirby-Melvin,
"Dedekind sums, mu-invariants and the signature cocycle", Math. Ann. 299
(1994)), in integer arithmetic only.  km_phi, inertia_minors and
tridiag_signature read one pass, _inertia, that takes each letter once
for the trace and the minors, so km_phi takes any iterable.  A symmetric
elimination with rational pivots is kept as an independent oracle under
tests/.
"""

from __future__ import annotations

from .matrices import check_word


def tridiag_trace(word) -> int:
    return sum(word)


def _inertia(word) -> tuple[int, int, int, int]:
    """(trace, k, sign changes, n_zero) of a word of k letters, in one pass.

    The minors follow d_i = a_i d_{i-1} - d_{i-2} from d_0 = 1, d_{-1} = 0,
    in integer arithmetic.  Unit off-diagonals force d_{i+1} = -d_{i-1}
    whenever d_i = 0, so interior zero minors sit between opposite signs
    and skip-zero sign-change counting charges them exactly one negative
    eigenvalue each; d_k = 0 is the (simple) zero eigenvalue, n_zero = 1.
    DomainError unless word is an iterable of int letters, which the trace
    shows.
    """
    trace = k = changes = 0
    # negative: the sign of the last nonzero minor; a = 0 names no bad letter
    # when an iterator fails before its first one
    d, d_prev, negative, a = 1, 0, False, 0
    try:
        for a in word:
            trace += a
            k += 1
            d, d_prev = a * d - d_prev, d
            if d > 0:
                if negative:
                    changes += 1
                    negative = False
            elif d and not negative:
                changes += 1
                negative = True
    except TypeError:
        check_word(word, (a,))  # a is the letter that failed, if one did
        raise
    if type(trace) is not int:
        check_word(word, (trace,))
    return trace, k, changes, 0 if d else 1


def inertia_minors(word) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of the word's tridiagonal matrix."""
    _, k, changes, n_zero = _inertia(word)
    return k - n_zero - changes, changes, n_zero


def tridiag_signature(word) -> int:
    _, k, changes, n_zero = _inertia(word)
    return k - n_zero - 2 * changes


def km_phi(word) -> int:
    """trace - 3 * signature of the word's tridiagonal matrix, from one pass
    over any iterable; DomainError unless its letters are ints."""
    trace, k, changes, n_zero = _inertia(word)
    return trace - 3 * (k - n_zero - 2 * changes)
