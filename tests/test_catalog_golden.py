"""Golden sha256 digests of every catalog family's masks, bit for bit.

For each family the masks at levels 0..5 of a few parameter sets, with a
real and an imaginary frequency, are written as the hex of each coefficient's
real and imaginary parts in `sorted_items` order and hashed; a second digest
covers levels 0..62.  The stationary limit masks and the butterfly's exact
combination are hashed alone, and each limit tap is held to its exact
rational, correctly rounded.  Any change to the float operations that build a
mask fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from expsub.catalog import CATALOG, _butterfly_coeffs, dual4_binary_limit_mask, dual4_ternary_limit_mask

CASES = {
    "exp_bspline": [
        dict(m=2, lam=0.7),
        dict(m=3, lam=0.7j),
        dict(m=2, lam=-0.4, n_fold=2),
        dict(m=3, lam=0.4j, n_fold=3),
        dict(m=2, lam=0.7, n_fold=2, tau=1.0),
        dict(m=3, lam=0.7j, n_fold=3, tau=0.5),
    ],
    "exp_product": [
        dict(m=3, factors=[(0.5, 1), (-0.3, 2)]),
        dict(m=2, factors=[(0.5j, 2), (-0.3j, 1)]),
        dict(m=3, factors=[(0.5, 2), (-0.3, 2)], normalization="two_factor"),
        dict(m=2, factors=[(0.5j, 1), (-0.3j, 1)], normalization="two_factor"),
    ],
    "exp_box_spline": [dict(n_dil=2, lam=(0.4, -0.2)), dict(n_dil=3, lam=(0.4j, -0.2j)), dict(n_dil=2, lam=0.6j)],
    "dual4_binary": [dict(lam=0.9), dict(lam=1.3j)],
    "dual4_ternary": [dict(lam=0.9), dict(lam=1.3j)],
    "butterfly": [dict(lam=(0.5, 0.3)), dict(lam=(0.5j, -0.3j))],
    "sheared_convolution": [dict(lam=(0.6, -0.4)), dict(lam=(0.6j, 0.9j), normalized=True)],
    "sqrt3": [dict(variant="approximating"), dict(variant="interpolatory")],
}

GOLDEN = {
    "exp_bspline": "55342b3020f30395a0df14132a7cf4f882ad32e6145e516f97be96500aba1820",
    "exp_product": "848164e0a441072f3137b377dd4c23c49f2ef83a72066bfbd392a1a43ae7c2c5",
    "exp_box_spline": "49d481c7078eb97b14612a7ec3f44d95928a1300006919928bf0a7fda9bb2659",
    "dual4_binary": "4e522c1656b56acadccf541d22a2acfe4072eca78eeb7e74392e1fe4d9b83150",
    "dual4_ternary": "4a0dd3f3984668c484fe53a7e26cd585f4d32ca20386b3222bb3a1041a28cd58",
    "butterfly": "c6e34078178fa760384f12c09f97d7068c9e6bb6de22b0a57258ef30d0122c98",
    "sheared_convolution": "a58cdf345313f0a6f451415c04eab0be9de8b84b7fd6838f80bbd48f29b36875",
    "sqrt3": "45423f12a4fab17c5c613c51720d3c6dc079fc742d208c11b7c828b37accf56a",
    "dual4_binary_limit_mask": "5132dd8b85cb921a70d6b5aec75ba9eb59ca6198b81970fc2b8558301913e86c",
    "dual4_ternary_limit_mask": "b4a5141ba62924a162e1300aad191adefddce5b9c587deaff7fb5f53f03dcd2a",
    "_butterfly_coeffs": "bb2ed4646c102d2ab7b876c12780d8f45ad4246ead2b6f0f79bd38c0e10f13a3",
}

# The same CASES over levels 0..62, the levels the benchmark's checks reach.
DEEP = {
    "butterfly": "f5f670ba27a7a21f6cbf8d849a9b0f32aa62f8326c4ece278585f6b8bafe4b72",
    "dual4_binary": "9ad17915719402f8eec19a1f9252bba0cf3290355e24b09df61545ca845a3313",
    "dual4_ternary": "a1eb389103fd43fdc8652a20bbd0f34dd53194c095a717d68db0b22b75c78f4d",
    "exp_box_spline": "f1358a5fa1ac551a160a336414aef037ebbd177b6333a8b0ce54bed96bfda14f",
    "exp_bspline": "244ec7baef7bf1933be80670334cbb34d93bc42916c454f0ae4a69dbf8f689c2",
    "exp_product": "4cb926f4ea37eca7f1de4d2512da09617164807cf716a63a81fe76e727eace2d",
    "sheared_convolution": "3bc57b030b2205b8fb9fbe28cc0ecc279562ab4fe35967592100f4e3a0a860fd",
    "sqrt3": "840b67361840f049f9556411e2c548248aa61b62dceedce1cf95679bd245150b",
}

FIXED = {
    "dual4_binary_limit_mask": dual4_binary_limit_mask,
    "dual4_ternary_limit_mask": dual4_ternary_limit_mask,
    "_butterfly_coeffs": _butterfly_coeffs,
}


def _hex(sym) -> bytes:
    return ";".join(f"{e}:{c.real.hex()},{c.imag.hex()}" for e, c in sym.sorted_items()).encode()


def test_every_family_is_pinned():
    assert set(CASES) == set(CATALOG)


@pytest.mark.parametrize("family", sorted(CASES))
def test_family_masks_keep_their_bits(family):
    h = hashlib.sha256()
    for kw in CASES[family]:
        spec = CATALOG[family].factory(**kw)
        for k in range(6):
            h.update(_hex(spec.symbol(k)))
    assert h.hexdigest() == GOLDEN[family]


@pytest.mark.parametrize("family", sorted(CASES))
def test_family_masks_keep_their_bits_to_level_62(family):
    h = hashlib.sha256()
    for kw in CASES[family]:
        spec = CATALOG[family].factory(**kw)
        for k in range(63):
            h.update(_hex(spec.symbol(k)))
    assert h.hexdigest() == DEEP[family]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_masks_keep_their_bits(name):
    assert hashlib.sha256(_hex(FIXED[name]())).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize(
    "mask, numerators, den",
    [
        (dual4_binary_limit_mask, (-5, -7, 35, 105, 105, 35, -7, -5), 128),
        (dual4_ternary_limit_mask, (-35, -81, -55, 231, 729, 1155, 1155, 729, 231, -55, -81, -35), 1296),
    ],
)
def test_dual4_limit_masks_are_the_exact_taps_rounded(mask, numerators, den):
    got = [(c.real.hex(), c.imag.hex()) for _, c in mask().sorted_items()]
    assert got == [(float(Fraction(n, den)).hex(), (0.0).hex()) for n in numerators]
