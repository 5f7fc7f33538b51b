"""Polynomial kernel: integer convolution and reduction.

Polynomials are sequences of Python ints, ascending degree; results are
lists. Moduli are monic (last coefficient 1); this keeps every
intermediate integral.
"""

import math


def poly_mul(a, b):
    """Convolution of two int coefficient sequences."""
    la = len(a)
    lb = len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai:
            for j in range(lb):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def poly_reduce(p, mod):
    """Reduce p modulo the monic polynomial mod, in place.

    Returns a list of exactly deg(mod) coefficients.
    """
    d = len(mod) - 1
    for i in range(len(p) - 1, d - 1, -1):
        c = p[i]
        if c:
            p[i] = 0
            base = i - d
            for j in range(d):
                mj = mod[j]
                if mj:
                    p[base + j] -= c * mj
    del p[d:]
    if len(p) < d:
        p.extend([0] * (d - len(p)))
    return p


def poly_mulmod(a, b, mod):
    """Convolution followed by reduction modulo the monic polynomial mod."""
    return poly_reduce(poly_mul(a, b), mod)


# -- packed integer rows -------------------------------------------------------
#
# A coefficient row packs into one int, sum_k c_k 2^(k*width), so a product of
# two packed rows is their convolution with one slot per coefficient, and a
# sum of such products is a dot product of rows. Slots are signed; the value
# decodes correctly while every slot lies in [-2^(width-1), 2^(width-1)).


def slot_width(*bounds):
    """Bits per signed slot that holds any |value| <= the product of the bounds.

    For a sum of products of rows the bounds are the largest |coefficient| of
    each factor and the number of coefficient products summed into one slot.
    """
    return math.prod(bounds).bit_length() + 1


def poly_pack(coeffs, width):
    """The row as one int with a width-bit slot per coefficient."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def poly_fold(value, width, n):
    """A packed row of at most 2n - 1 slots, reduced modulo x^n - 1 to n slots.

    Slot k + n adds onto slot k; the caller's width must hold the sums.
    """
    shift = width * n
    half = 1 << (shift - 1)
    low = ((value + half) & ((1 << shift) - 1)) - half  # slots 0..n-1, signed
    return low + ((value - low) >> shift)


def poly_unpack(value, width, count):
    """The count signed width-bit slots of a packed value, lowest first."""
    half = 1 << (width - 1)
    size = width * count
    # adding half to every slot makes each one a plain base-2^width digit
    total = value + half * (((1 << size) - 1) // ((1 << width) - 1))
    if not 0 <= total < 1 << size:
        raise ValueError(f"packed value does not fit {count} slots of {width} bits")
    mask = (1 << width) - 1
    return [((total >> k) & mask) - half for k in range(0, size, width)]

