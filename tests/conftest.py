import numpy as np
import pytest

from ffharm import gauss, inv


def _dense_kernel(ctx):
    """The q x q sphere kernel K[j, t] by one O(q^3) product, the oracle of the gathered one.

    The Kloosterman (or, for odd d, Salie) sum is a sum over s in F_q^* of
    chi(-j s) chi(-t s^{-1} / 4), so K = G^d / q * J T, formed as
    Re(J' T) = Re J' Re T - Im J' Im T with J' = G^d / q * J: one float64
    product of inner size 2(q - 1) over every row j, read off the cosine
    and sine parts of the character table.
    """
    q = ctx.q
    s = np.arange(1, q)
    chi = ctx.chi_values
    scaled = gauss(ctx, 1) ** ctx.d / q * chi
    j_index = (-np.outer(np.arange(q), s)) % q
    j_part = np.hstack([scaled.real[j_index], -scaled.imag[j_index]])
    if ctx.d % 2 == 1:
        j_part *= np.tile(ctx.eta_values[s], 2)
    quarter = (-inv(ctx, 4 % q) * ctx.inv_table[1:]) % q
    t_index = np.outer(quarter, np.arange(q)) % q
    return j_part @ np.vstack([chi.real[t_index], chi.imag[t_index]])


@pytest.fixture
def dense_kernel():
    """The O(q^3) kernel product, as a function of the field context."""
    return _dense_kernel
