"""The chart formulas of Gamma(n) derived from its fan, with no code of
degkit, as an outside oracle for ``gamma_atlas``.

The singular model xy = t_1 ... t_{n+1} is the affine toric variety of the
cone over the prism Delta^n x Delta^1.  In N = Z^{n+2}, with coordinates
(a_1 .. a_{n+1}, b), its rays are (e_i, 0) and (e_i, 1), i = 1 .. n+1.
Gamma(n) is the toric variety of the staircase subdivision of that cone:
chart l, l = 1 .. n+1, is the cone spanned by (e_i, 0) for i <= l and then
(e_i, 1) for i >= l, in that order.  Each cone is unimodular, so chart l
has the coordinates u_1 .. u_{n+2}, the basis m_1 .. m_{n+2} of M dual to
its rays r_1 .. r_{n+2}, and a character m of M is the monomial
prod_j u_j^<r_j, m> (W. Fulton, Introduction to Toric Varieties, Ann. of
Math. Stud. 131, 1993, sections 1.3 and 2.1).  Everything here follows
from that one rule, by integer matrix inversion:

- the projection: t_i is the character e_i*, so its exponent on u_j is
  <r_j, e_i*>, the i-th coordinate of r_j;
- the transition from chart l to chart l': the coordinate u'_j of chart
  l' is its dual basis vector m'_j, so its exponent on u_k is <r_k, m'_j>;
- the rank-n torus: the cocharacter nu_k = (e_k - e_{k+1}, 0) scales u_j
  by sigma_k^<nu_k, m_j>, the j-th coordinate of nu_k in the ray basis.

Each formula is a list of monomials (coefficient, exponent vector), one
per component; the coefficients are all 1.  Exponents run over the chart
coordinates u_1 .. u_{n+2}, and for the torus then over sigma_1 ..
sigma_n.
"""

from fractions import Fraction


def _pairing(v, w):
    return sum(a * b for a, b in zip(v, w))


def cone_rays(n, l):
    """The rays of chart l of Gamma(n), in coordinate order."""
    def ray(i, b):
        return tuple(int(k == i) for k in range(1, n + 2)) + (b,)

    return [ray(i, 0) for i in range(1, l + 1)] + [ray(i, 1) for i in range(l, n + 2)]


def dual_basis(rays):
    """The basis m_1 .. m_r of M with <r_k, m_j> = 1 if k = j, else 0: the
    columns of the inverse of the matrix whose rows are the rays, by exact
    Gauss-Jordan elimination.  ValueError unless the cone is unimodular."""
    r = len(rays)
    aug = [
        [Fraction(x) for x in ray] + [Fraction(int(i == k)) for k in range(r)]
        for i, ray in enumerate(rays)
    ]
    for col in range(r):
        pivot = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(r):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    if any(x.denominator != 1 for row in aug for x in row[r:]):
        raise ValueError("the cone is not unimodular")
    return [tuple(int(aug[i][r + j]) for i in range(r)) for j in range(r)]


def projection(n, l):
    """t_1 .. t_{n+1} as monomials in the coordinates of chart l."""
    rays = cone_rays(n, l)
    return [(1, tuple(ray[i] for ray in rays)) for i in range(n + 1)]


def transition(n, l, target):
    """The coordinates of chart ``target`` as monomials in those of chart
    l."""
    rays = cone_rays(n, l)
    return [
        (1, tuple(_pairing(ray, m) for ray in rays))
        for m in dual_basis(cone_rays(n, target))
    ]


def action(n, l):
    """The torus on chart l: u_j goes to u_j times a monomial in sigma_1 ..
    sigma_n."""
    cocharacters = [
        tuple(int(i == k) - int(i == k + 1) for i in range(1, n + 2)) + (0,)
        for k in range(1, n + 1)
    ]
    out = []
    for j, m in enumerate(dual_basis(cone_rays(n, l))):
        u = tuple(int(i == j) for i in range(n + 2))
        out.append((1, u + tuple(_pairing(nu, m) for nu in cocharacters)))
    return out
