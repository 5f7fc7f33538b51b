"""Polynomial kernel: integer convolution and reduction.

Polynomials are sequences of Python ints, ascending degree; results are
lists. Moduli are monic (last coefficient 1); this keeps every
intermediate integral.
"""


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


def slot_width(max_a, max_b, terms):
    """Bits per slot for a sum of products of rows with |coeff| <= max_a, max_b.

    `terms` bounds the coefficient products summed into one slot (rows per
    dot product times row length), so |slot| <= terms * max_a * max_b
    < 2^(bits(max_a) + bits(max_b) + bits(terms)); one more bit holds the sign.
    """
    return max_a.bit_length() + max_b.bit_length() + terms.bit_length() + 1


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
    # adding half to every slot makes each one a plain base-2^width digit
    total = value + int(("1" + "0" * (width - 1)) * count, 2)
    if not 0 <= total < 1 << (width * count):
        raise ValueError(f"packed value does not fit {count} slots of {width} bits")
    bits = format(total, f"0{width * count}b")
    return [int(bits[i - width : i], 2) - half for i in range(len(bits), 0, -width)]
