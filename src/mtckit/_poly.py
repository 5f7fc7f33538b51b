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
