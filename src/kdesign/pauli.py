"""Pauli strings, Clifford tableaus, and stabilizer groups.

Conventions, used consistently everywhere downstream:

- qubit j corresponds to bit j of the x and z bitsets and to bit j of a
  computational-basis index (little-endian);
- a PauliString(n, x, z, phase) is the operator i^phase * sigma(x, z), where
  sigma(x, z) := i^|x & z| X^x Z^z is the Hermitian representative
  (so sigma(1, 1) = Y on one qubit);
- the symplectic bit vector of a Pauli is the int x | (z << n), matching
  the x-block-then-z-block layout of kdesign.f2;
- a Clifford is its tableau: CliffordOp validates a tuple of 2n + 1 ints
  (the generator images as bit vectors, then the sign word), and its
  x_images and z_images are PauliString views of those ints;
- MAX_DENSE_QUBITS is the one dense-register bound, and check_dense is
  its one check, in qubits or in dimensions;
- CliffordOps are phase-quotiented: only the +/- signs on generator images
  are tracked, never a global phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .f2 import rref_basis, swap_halves, symplectic_product


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli with an i^phase prefactor on the Hermitian representative."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask or self.x < 0 or self.z < 0:
            raise ValidationError("x/z bits out of range for n qubits")
        if not 0 <= self.phase < 4:
            raise ValidationError(f"phase exponent must be in 0..3, got {self.phase}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a string like 'XIZY'; label[j] acts on qubit j."""
        x = z = 0
        for j, ch in enumerate(label):
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
            if ch not in "IXYZ":
                raise ValidationError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z, 0 if sign == 1 else 2)

    def label(self) -> str:
        out = []
        for j in range(self.n):
            out.append("IXZY"[((self.x >> j) & 1) + 2 * ((self.z >> j) & 1)])
        return "".join(out)

    @property
    def symplectic_vec(self) -> int:
        return self.x | (self.z << self.n)

    @classmethod
    def from_symplectic_vec(cls, v: int, n: int, phase: int = 0) -> "PauliString":
        return cls(n, v & ((1 << n) - 1), v >> n, phase)

    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def negate(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, (self.phase + 2) % 4)


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product, tracking the power of i."""
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    x = p.x ^ q.x
    z = p.z ^ q.z
    w_p = (p.x & p.z).bit_count()
    w_q = (q.x & q.z).bit_count()
    w_pq = (x & z).bit_count()
    cross = (p.z & q.x).bit_count()
    phase = (p.phase + q.phase + w_p + w_q + 2 * cross - w_pq) % 4
    return PauliString(p.n, x, z, phase)


def _pauli_product(ax, az, aph, bx, bz, bph):
    """(x, z, phase) of i^aph sigma(ax, az) times i^bph sigma(bx, bz): the
    phase rule of pauli_mul on integer arrays, which broadcast."""
    cnt = np.bitwise_count
    x, z = ax ^ bx, az ^ bz
    ph = (aph + bph + cnt(ax & az) + cnt(bx & bz) + 2 * cnt(az & bx) - cnt(x & z)) % 4
    return x, z, ph


def chi(p: PauliString, q: PauliString) -> int:
    """+1 when the Paulis commute, -1 when they anticommute."""
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    return 1 if symplectic_product(p.symplectic_vec, q.symplectic_vec, p.n) == 0 else -1


# ---------------------------------------------------------------------------
# dense action (used by to_matrix, expectations, stabilizer scans)


# i^k * (+1, -1) for k = 0..3: the factor sigma(x, z) with phase i^k puts on
# an amplitude.  Built as `1j**k * signs`, so dense results are bit-stable.
_FACTORS = np.array([1j**k * np.array([1.0, -1.0]) for k in range(4)])


def _pauli_action(x, z, phase, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, fac) with (P v)[r] = fac[r] * v[src[r]] for P = i^phase sigma(x, z).

    x, z and phase may be integer arrays; they broadcast against rows.
    """
    src = rows ^ x
    k = (phase + np.bitwise_count(x & z)) % 4
    return src, _FACTORS[k, np.bitwise_count(src & z) & 1]


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P |vec> for a dense state of length 2^n."""
    d = 1 << p.n
    if vec.shape != (d,):
        raise ValidationError(f"state length {vec.shape} does not match n={p.n}")
    src, fac = _pauli_action(p.x, p.z, p.phase, np.arange(d))
    return fac * vec[src]


def pauli_matrix(p: PauliString) -> np.ndarray:
    d = 1 << p.n
    m = np.zeros((d, d), dtype=complex)
    rows = np.arange(d)
    src, fac = _pauli_action(p.x, p.z, p.phase, rows)
    m[rows, src] = fac
    return m


# ---------------------------------------------------------------------------
# Clifford tableaus


@dataclass(frozen=True)
class CliffordOp:
    """Phase-quotiented Clifford: its tableau, validated.

    tableau holds the images of X_1..X_n, Z_1..Z_n under conjugation as
    x | z << n bit vectors, then the sign word (bit j set when image j
    carries -1).  The constructor checks its length, that every entry is a
    2n-bit word, and that the images keep the generators' commutation
    table (S^T J S = J).  x_images and z_images are read-only PauliString
    views of the same images.
    """

    n: int
    tableau: tuple[int, ...]

    def __post_init__(self) -> None:
        n, tab = self.n, tuple(self.tableau)
        if n < 1 or len(tab) != 2 * n + 1:
            raise ValidationError(f"a tableau on n >= 1 qubits has 2n + 1 entries, got n={n}")
        if any(v < 0 or v >> 2 * n for v in tab):
            raise ValidationError(f"tableau entries must be {2 * n}-bit words")
        swapped = [swap_halves(v, n) for v in tab[:-1]]
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                if (tab[a] & swapped[b]).bit_count() & 1 != (b == a + n):
                    raise ValidationError("images do not satisfy the symplectic condition")
        object.__setattr__(self, "tableau", tab)

    @classmethod
    def identity(cls, n: int) -> "CliffordOp":
        return cls(n, (*(1 << j for j in range(2 * n)), 0))

    @cached_property
    def _images(self) -> tuple[PauliString, ...]:
        """The signed images of X_1..X_n, then Z_1..Z_n, built once."""
        n, signs = self.n, self.tableau[-1]
        return tuple(
            PauliString.from_symplectic_vec(v, n, 2 * ((signs >> j) & 1))
            for j, v in enumerate(self.tableau[:-1])
        )

    @property
    def x_images(self) -> tuple[PauliString, ...]:
        return self._images[: self.n]

    @property
    def z_images(self) -> tuple[PauliString, ...]:
        return self._images[self.n :]


def clifford_conjugate(c: CliffordOp, p: PauliString) -> PauliString:
    """C P C^dagger via the tableau, with exact sign tracking."""
    if p.n != c.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {c.n}")
    w = (p.x & p.z).bit_count()
    acc = PauliString(c.n, 0, 0, (p.phase + w) % 4)
    v = p.symplectic_vec
    for j, g in enumerate(c._images):
        if (v >> j) & 1:
            acc = pauli_mul(acc, g)
    if p.is_hermitian() and not acc.is_hermitian():
        raise InternalConsistencyError("conjugation broke Hermiticity")
    return acc


def clifford_inverse(c: CliffordOp) -> CliffordOp:
    """Tableau inverse: symplectic part J S^T J, signs fixed by round-tripping.

    With ' swapping the x and z halves, bit i of inverse image j is bit j' of
    image i'.
    """
    n, nn = c.n, 2 * c.n
    tab = c.tableau
    images = [
        sum(((tab[(i + n) % nn] >> ((j + n) % nn)) & 1) << i for i in range(nn))
        for j in range(nn)
    ]
    # Set each image sign so that C(C^-1 g C) C^dagger == g exactly.
    signs = 0
    for j, img in enumerate(images):
        back = clifford_conjugate(c, PauliString.from_symplectic_vec(img, n))
        if back.symplectic_vec != 1 << j:
            raise InternalConsistencyError("symplectic inverse failed to round-trip")
        signs |= (back.phase >> 1) << j
    return CliffordOp(n, (*images, signs))


# ---------------------------------------------------------------------------
# uniform sampling (Koenig–Smolin transvections, vectorized over rows of draws)


@lru_cache(maxsize=None)
def _draw_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """[low, high) of each draw of one uniform tableau, in stream order: per
    level m = n..1, outermost first, f1 in [1, 4^m) and then the 2m - 1
    completion bits; last the 2n sign bits as one int in [0, 4^n).  Level m
    starts at index n(n + 1) - m(m + 1).

    Raises ValidationError unless 1 <= n <= 31, the widest register whose
    4^n bound fits int64; this is the register check of every sampler.
    """
    if not 1 <= n <= 31:
        raise ValidationError(f"uniform tableaus need 1 <= n <= 31, got n={n}")
    low, high = [], []
    for m in range(n, 0, -1):
        low += [1] + [0] * (2 * m - 1)
        high += [1 << 2 * m] + [2] * (2 * m - 1)
    bounds = np.array(low + [0]), np.array(high + [1 << 2 * n])
    for a in bounds:  # shared by every call
        a.flags.writeable = False
    return bounds


def _tableau_draws(n: int, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """The randomness of `count` uniform tableaus, one after another, as a
    (count, n(n + 1) + 1) int64 array: a row is the draws of `_draw_bounds`.

    One `rng.integers` call over the bounds broadcast to that shape.  Each
    entry makes its own bounded draw, as a call for that entry alone would,
    so the values and the generator's final state are those of drawing the
    entries one by one, in row order.
    """
    low, high = _draw_bounds(n)
    # numpy's path for bounds with no size is the faster one for one row
    size = (count, len(low)) if count > 1 else None
    return rng.integers(low, high, size=size).reshape(count, -1)


@lru_cache(maxsize=None)
def _tableau_layout(n: int):
    """The fixed index arrays of `_tableaus` at n qubits: the f1 column of
    each level in a row of `_tableau_draws`, the weights that sum its
    completion bits 1.. into e' at positions 2.., each level's shift into
    the 2n-bit register, and the x|z position of each directsum position."""
    ms, pos = np.arange(1, n + 1), np.arange(2 * n)
    offs = n * (n + 1) - ms * (ms + 1)
    weights = np.zeros((n * (n + 1) + 1, n), dtype=np.uint64)
    for m, off in zip(ms, offs):
        weights[off + 2 : off + 2 * m, m - 1] = 1 << np.arange(2, 2 * m, dtype=np.uint64)
    std = pos // 2 + (pos & 1) * n  # 2q -> x_q (= q), 2q + 1 -> z_q (= n + q)
    layout = offs, weights, (2 * (n - ms)).astype(np.uint64)[:, None], std
    for a in layout:  # shared by every call
        a.flags.writeable = False
    return layout


def _tableaus(n: int, draws) -> np.ndarray:
    """Exactly uniform tableaus, in the array form of `CliffordOp.tableau`,
    for m rows of `_tableau_draws`, as an (m, 2n + 1) int64 array.

    The Koenig–Smolin transvection construction (arXiv:1406.2170), in the
    directsum layout that puts qubit q's x and z bits at positions 2q and
    2q + 1.  Level m of the 2m-bit register takes e1 to its draw f1, a
    uniform nonzero vector, by two transvections; its completion bits pick
    e1's partner uniformly among the 2^(2m - 1) vectors pairing oddly with
    f1; and the levels inside it, on the bits above its first pair, go
    through the same map.  The signs are the row's last draw, uniform.  The
    result is symplectic by construction, so nothing is validated.

    Bit vectors are uint64 and symplectic parities are bit counts.  The
    transvections of level m, shifted up by 2(n - m) bits, fix the rows
    that the levels outside it add at the bottom.  So the rows are the
    identity taken through each level's map (its four transvections),
    innermost level first, and the maps of all levels are built at once.
    """
    nn = 2 * n
    d = np.asarray(draws, dtype=np.uint64).reshape(-1, n * (n + 1) + 1)
    offs, weights, shift, std = _tableau_layout(n)
    one, three = np.uint64(1), np.uint64(3)
    even = np.uint64(((1 << nn) - 1) // 3)
    basis = np.arange(nn, dtype=np.uint64)

    def partner(h):
        return ((h & even) << one) | ((h >> one) & even)

    def transvect(h, hp, vs):
        vs ^= h * (np.bitwise_count(vs & hp) & 1)

    # the two transvections taking e1 to each level's f1 = y, by cases:
    # y = e1 gives (0, 0); an odd product with e1 gives (y + e1, 0); else
    # (e1 + z, y + z) with z = 3 on pair 0 and, when y leaves pair 0 empty,
    # v on y's lowest nonzero pair: v = 1 where that pair holds 3, else 3
    y = d[:, offs]
    low = y & ~three
    low = (low | low >> one) & even
    low &= -low  # its lowest set bit; the negation wraps mod 2^64
    vlow = (three * low) ^ ((y & (y >> one) & low) << one)
    z = three ^ np.where(y & three, 0, vlow)
    odd, not_e1 = (y >> one) & one, y != one
    hs = np.zeros((len(d), n, 4), dtype=np.uint64)
    hs[..., 0] = np.where(odd, y ^ one, one ^ z) * not_e1
    hs[..., 1] = np.where(odd, 0, y ^ z) * not_e1
    hps = partner(hs)
    # h0 = Z_t1 Z_t0 e'
    h0 = one + d @ weights
    for k in (0, 1):
        transvect(hs[..., k], hps[..., k], h0)
    hs[..., 2] = h0
    hs[..., 3] = np.where(d[:, offs + 1], 0, y)
    hps[..., 2:] = partner(hs[..., 2:])
    hs, hps = hs << shift, hps << shift
    # maps[:, m - 1, b]: the image of e_b under level m
    maps = np.empty((len(d), n, nn), dtype=np.uint64)
    maps[...] = one << basis
    for k in range(4):
        transvect(hs[..., k, None], hps[..., k, None], maps)
    # a row through a map: the XOR of the images of its bits
    rows = maps[:, 0]
    for level in range(1, n):
        bits = (rows[:, None, :] >> basis[:, None]) & one
        rows = np.bitwise_xor.reduce(bits * maps[:, level, :, None], axis=1)
    # image j is column j of the row matrix, both indices in the x|z layout
    out = np.empty((len(d), nn + 1), dtype=np.int64)
    out[:, std] = (one << std.astype(np.uint64)) @ ((rows[:, :, None] >> basis) & one)
    out[:, nn] = d[:, -1]
    return out


def random_tableau(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Exactly uniform Clifford in the array form of `CliffordOp.tableau`:
    one row of `_tableaus`."""
    return tuple(_tableaus(n, _tableau_draws(n, rng))[0].tolist())


def random_clifford(n: int, rng: np.random.Generator) -> CliffordOp:
    """Exactly uniform Clifford, as a validated CliffordOp."""
    return CliffordOp(n, random_tableau(n, rng))


# ---------------------------------------------------------------------------
# exhaustive enumeration (small n; independent of the sampler)

MAX_ENUMERATED_QUBITS = 2


@lru_cache(maxsize=None)
def enumerate_symplectics(n: int) -> tuple[tuple[int, ...], ...]:
    """All of Sp(2n, F_2) by brute scan, each as its 2n image bit vectors;
    n <= MAX_ENUMERATED_QUBITS only."""
    if n > MAX_ENUMERATED_QUBITS:
        raise ValidationError(
            f"exhaustive symplectic enumeration is limited to n <= {MAX_ENUMERATED_QUBITS}"
        )
    nn = 2 * n
    out = []
    for bits in range(1 << (nn * nn)):
        cols = tuple((bits >> (nn * j)) & ((1 << nn) - 1) for j in range(nn))
        if all(
            symplectic_product(cols[a], cols[b], n) == (b == a + n)
            for a in range(nn)
            for b in range(a, nn)
        ):
            out.append(cols)
    return tuple(out)


def enumerate_cliffords(n: int) -> list[CliffordOp]:
    """The full phase-quotiented Clifford group; n <= 2 (24 and 11520 elements)."""
    return [
        CliffordOp(n, (*s, sgn))
        for s in enumerate_symplectics(n)
        for sgn in range(1 << (2 * n))
    ]


# ---------------------------------------------------------------------------
# dense conversion


# The largest register held as dense amplitudes or matrices, everywhere.
MAX_DENSE_QUBITS = 12


def check_dense(n: int | None = None, dim: int | None = None, what: str = "a register") -> None:
    """ValidationError unless `what`, of n qubits or of dimension dim, lies
    within the dense limit of 1 to MAX_DENSE_QUBITS qubits.  It builds no
    2^n and names a dimension by its bit length alone, so any int is
    checked at once."""
    if dim is None and not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValidationError(
            f"{what} of {n} qubits is outside the dense limit of 1 to {MAX_DENSE_QUBITS} qubits"
        )
    if dim is not None and not 1 <= dim <= 1 << MAX_DENSE_QUBITS:
        raise ValidationError(
            f"{what} of a {int(dim).bit_length()}-bit dimension is outside the dense limit "
            f"of 1 to 2^{MAX_DENSE_QUBITS}"
        )


def cliffords_to_matrices(n: int, tableaus) -> np.ndarray:
    """Dense unitaries realizing a batch of tableaus, as an (m, 2^n, 2^n) array.

    tableaus is a sequence of `CliffordOp.tableau` forms, or an (m, 2n + 1)
    integer array.  Column 0 of each unitary is the stabilizer state of the
    Z images, the projection of the first basis state it overlaps, with its
    largest amplitude made real positive (the global phase).  Column x is
    P_x column 0, where P_x is the product of the X images of x's bits.

    The projector is the average of the Z-image group G, so <s|Pi|s> is
    the sum over G's diagonal elements +/-Z^z of +/-(-1)^(z.s), over 2^n:
    the Walsh transform of those signs at s.  The first basis state with a
    positive value is the first one Pi does not annihilate.
    """
    check_dense(n)
    tab = np.asarray(tableaus, dtype=np.int64).reshape(-1, 2 * n + 1)
    m, d = len(tab), 1 << n
    xs, zs = tab[:, : 2 * n] & (d - 1), tab[:, : 2 * n] >> n
    phases = 2 * ((tab[:, 2 * n :] >> np.arange(2 * n)) & 1)
    rows, each = np.arange(d), np.arange(m)[:, None]

    # products of the X images (row 2i) and of the Z images (row 2i + 1) of
    # tableau i, by doubling: P_{s + 2^j} = P_s G_j for s < 2^j
    gx, gz, gph = (a.reshape(2 * m, n) for a in (xs, zs, phases))
    px, pz, pph = (np.zeros((2 * m, d), dtype=np.int64) for _ in range(3))
    for j in range(n):
        h = 1 << j
        px[:, h : 2 * h], pz[:, h : 2 * h], pph[:, h : 2 * h] = _pauli_product(
            px[:, :h], pz[:, :h], pph[:, :h], gx[:, j, None], gz[:, j, None], gph[:, j, None]
        )
    # [:, 0]: the X-image products P_x; [:, 1]: the Z-image group
    px, pz, pph = (a.reshape(m, 2, d) for a in (px, pz, pph))
    r, c = np.nonzero(px[:, 1] == 0)
    signs = np.bincount(r * d + pz[r, 1, c], weights=1 - pph[r, 1, c], minlength=m * d)
    support = _fwht(signs.reshape(m, d)) > 0
    if not support.any(axis=1).all():
        raise InternalConsistencyError("stabilizer projector annihilated every basis state")
    psi = np.zeros((m, d), dtype=complex)
    psi[each[:, 0], support.argmax(axis=1)] = 1.0
    zsrc, zfac = _pauli_action(
        xs[:, n:, None], zs[:, n:, None], phases[:, n:, None], rows
    )
    for j in range(n):
        psi = 0.5 * (psi + zfac[:, j] * psi[each, zsrc[:, j]])
    psi = psi / np.linalg.norm(psi, axis=1)[:, None]
    # pin the global phase: largest amplitude made real positive
    top = psi[each, np.argmax(np.abs(psi), axis=1)[:, None]]
    psi = psi * (np.abs(top) / top)

    src, fac = _pauli_action(
        px[:, 0, None, :], pz[:, 0, None, :], pph[:, 0, None, :], rows[:, None]
    )
    u = fac * psi[each[:, :, None], src]
    u[:, :, 0] = psi
    return u


def clifford_to_matrix(c: CliffordOp) -> np.ndarray:
    """Dense 2^n x 2^n unitary realizing the tableau, deterministic global phase."""
    return cliffords_to_matrices(c.n, [c.tableau])[0]


# ---------------------------------------------------------------------------
# stabilizer groups


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian Pauli subgroup of order 2^(n-t) stabilizing some state.

    Generators are signed so each has expectation +1 on that state; they are
    the canonical RREF basis of the group's symplectic span.
    """

    n: int
    t: int
    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != self.n - self.t:
            raise ValidationError(
                f"expected {self.n - self.t} generators, got {len(self.generators)}"
            )
        if any(g.n != self.n for g in self.generators):
            raise ValidationError(f"stabilizer generators must act on {self.n} qubits")
        for a, b in itertools.combinations(self.generators, 2):
            if chi(a, b) != 1:
                raise ValidationError("stabilizer generators must commute")

    @property
    def order(self) -> int:
        return 1 << (self.n - self.t)

    def elements(self):
        """All 2^(n-t) signed elements, identity included."""
        m = len(self.generators)
        for mask in range(1 << m):
            acc = PauliString.identity(self.n)
            for j in range(m):
                if (mask >> j) & 1:
                    acc = pauli_mul(acc, self.generators[j])
            yield acc


def _butterflies(x: np.ndarray) -> np.ndarray:
    """Radix-2 Walsh levels along axis 1 of a C-contiguous (R, N, M) array,
    which it overwrites: each level writes out of place into the other of
    two buffers, so no level copies a half first."""
    rows, size, inner = x.shape
    y = np.empty_like(x)
    h = 1
    while h < size:
        s, o = x.reshape(rows, -1, 2, h * inner), y.reshape(rows, -1, 2, h * inner)
        np.add(s[:, :, 0], s[:, :, 1], out=o[:, :, 0])
        np.subtract(s[:, :, 0], s[:, :, 1], out=o[:, :, 1])
        x, y = y, x
        h *= 2
    return x


def _fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of the last axis, unnormalized; its length
    is a power of two.

    The radix-2 butterflies (lo, hi) -> (lo + hi, lo - hi) at strides 1, 2,
    4, ...: the additions of the in-place radix-2 form (the tests' oracle)
    in the same order, so the bits are the same.  Only the layout differs.
    numpy runs one inner loop per contiguous run, and a stride-h level in
    the natural layout has runs of h.  So the levels of the low b positions
    run on a copy that puts those bits in front of every other index, and
    the levels of the high bits run on the natural layout again, with runs
    of at least b.  b is the power of two near sqrt(rows x length), capped
    at the length, which balances the two run lengths.
    """
    v = np.asarray(v)
    size = v.shape[-1]
    rows = v.size // size
    b = min(size, 1 << (rows * size).bit_length() // 2)
    a = size // b
    low = np.array(v.reshape(rows, a, b).transpose(2, 0, 1), order="C")
    low = _butterflies(low.reshape(1, b, rows * a))
    high = np.array(low.reshape(b, rows, a).transpose(1, 2, 0), order="C")
    return _butterflies(high.reshape(rows, a, b)).reshape(v.shape)


# i^k for k = 0..3, as `1j ** k` gives them
_I_POWERS = 1j ** np.arange(4)


# The largest register with a 4^n Pauli table: expectations, stabilizer
# scans, Bell and Bell-difference tables, and so the attack built on them.
MAX_TABLE_QUBITS = 8


def _pauli_table(left: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Entry [a, b] is sum_x left[x ^ a] <x ^ a| sigma(a, b) |x> amps[x].

    That is i^|a & b| FWHT_b(left[x ^ a] amps[x]), computed for every row a
    at once as a complex (2^n, 2^n) array.  left = conj(amps) gives the
    Pauli expectations, left = amps the transpose amplitudes of the Bell
    basis.
    """
    n = _qubit_count(amps)
    if n > MAX_TABLE_QUBITS:
        raise ValidationError(f"4^n tables limited to n <= {MAX_TABLE_QUBITS}, got n={n}")
    xor, powers = _table_layout(n)
    return powers * _fwht(left[xor] * amps)


@lru_cache(maxsize=None)
def _table_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed arrays of `_pauli_table` at n qubits: a ^ x at [a, x], and
    i^|a & b| at [a, b]."""
    idx = np.arange(1 << n)
    layout = idx[:, None] ^ idx, _I_POWERS[np.bitwise_count(idx[:, None] & idx) % 4]
    for a in layout:  # shared by every call
        a.flags.writeable = False
    return layout


def pauli_expectations_all(amps: np.ndarray) -> np.ndarray:
    """<psi| sigma(a,b) |psi> for every (a,b), as a (2^n, 2^n) real array
    for a state of 2^n amplitudes.

    Entry [a, b] is the expectation of sigma(a, b); cost O(4^n log 2^n).
    """
    vals = _pauli_table(np.conj(amps), amps)
    if np.max(np.abs(vals.imag)) > 1e-7:
        raise InternalConsistencyError("Pauli expectation came out non-real")
    return vals.real.copy()


def _qubit_count(amps: np.ndarray) -> int:
    """n for a state of 2^n amplitudes; ValidationError for any other length
    or shape."""
    if np.ndim(amps) != 1:
        raise ValidationError(f"amplitudes must form one vector, got shape {np.shape(amps)}")
    d = len(amps)
    if d < 1 or d & (d - 1):
        raise ValidationError(f"amplitude count {d} is not a power of two")
    return d.bit_length() - 1


def stabilizer_group_of(psi, t: int) -> StabilizerGroup:
    """Scan all 4^n Paulis for expectation +/-1 (tolerance 1e-9) on psi.

    psi may be a dense amplitude array or anything with an .amplitudes array.
    Raises ValidationError when the matches do not form a closed group of
    order 2^(n-t).
    """
    amps = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex)
    n = _qubit_count(amps)
    if not 0 <= t <= n:
        raise ValidationError(f"need 0 <= t <= n, got t={t}")

    exps = pauli_expectations_all(amps)
    xs, zs = np.nonzero(np.abs(np.abs(exps) - 1.0) <= 1e-9)

    expected = 1 << (n - t)
    if len(xs) != expected:
        raise ValidationError(
            f"found {len(xs)} stabilizing Paulis, expected {expected} for t={t}"
        )
    vecs = sorted((xs | (zs << n)).tolist())
    basis = rref_basis([v for v in vecs if v], 2 * n)
    # a subset of its own span is the span (hence a group) iff the sizes agree
    if (1 << len(basis)) != len(vecs):
        raise ValidationError("stabilizing Paulis are not closed under products")
    gens = []
    for v in basis:
        p = PauliString.from_symplectic_vec(v, n)
        e = exps[p.x, p.z]
        gens.append(p if e > 0 else p.negate())
    return StabilizerGroup(n, t, tuple(gens))
