"""Trace and signature of the symmetric tridiagonal matrix of a word.

A word (a_1, ..., a_k) gives the k x k symmetric matrix M with diagonal
a_1, ..., a_k and unit off-diagonals.  km_phi evaluates

    trace(M) - 3 signature(M),

which equals the Rademacher symbol of the reconstructed product (tested
exhaustively).  The signature comes from the signs of the leading
principal minors (Sylvester's law of inertia, as in Kirby-Melvin,
"Dedekind sums, mu-invariants and the signature cocycle", Math. Ann. 299
(1994)), in integer arithmetic only.  A symmetric elimination with
rational pivots is kept as an independent oracle under tests/.
"""

from __future__ import annotations

from .matrices import check_ints


def tridiag_trace(word) -> int:
    return sum(word)


def inertia_minors(word) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) by the minor recurrence d_i = a_i d_{i-1} - d_{i-2}.

    Integer arithmetic throughout.  Unit off-diagonals force
    d_{i+1} = -d_{i-1} whenever d_i = 0, so interior zero minors sit between
    opposite signs and skip-zero sign-change counting charges them exactly
    one negative eigenvalue each; d_k = 0 is the (simple) zero eigenvalue.
    """
    k = len(word)
    changes = 0
    d_im1, d_im2 = 1, 0  # d_0 = 1, d_{-1} = 0
    positive = True  # sign of the last nonzero minor
    for a in word:
        d_im2, d_im1 = d_im1, a * d_im1 - d_im2
        if d_im1 and (d_im1 > 0) != positive:
            changes += 1
            positive = not positive
    n_zero = 1 if d_im1 == 0 else 0
    return k - n_zero - changes, changes, n_zero


def tridiag_signature(word) -> int:
    n_pos, n_neg, _ = inertia_minors(word)
    return n_pos - n_neg


def km_phi(word) -> int:
    """trace - 3 * signature of the word's tridiagonal matrix; DomainError
    unless every letter is an int (the trace is an int exactly then)."""
    try:
        trace = tridiag_trace(word)
    except TypeError:
        trace = None
    if type(trace) is not int:
        check_ints("a letter", word)
    return trace - 3 * tridiag_signature(word)
