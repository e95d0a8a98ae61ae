import copy
import pickle
from fractions import Fraction

import pytest

from schwinger_su3.catalog import (
    InvalidWeightError,
    IrrepLabel,
    WeightLabel,
    cg_series,
    dim,
    induced_multiplicity,
    iy_spectrum,
    k_of,
    weight_from_iy,
    weight_from_rs,
)


def test_dim_values():
    assert dim(IrrepLabel(1, 0)) == 3
    assert dim(IrrepLabel(1, 1)) == 8
    assert dim(IrrepLabel(0, 0)) == 1
    assert dim(IrrepLabel(2, 2)) == 27
    assert dim(IrrepLabel(3, 0)) == 10


def test_dim_conjugation_symmetry():
    for p in range(11):
        for q in range(11):
            assert dim(IrrepLabel(p, q)) == dim(IrrepLabel(q, p))


def test_irrep_label_validation():
    with pytest.raises(ValueError):
        IrrepLabel(-1, 0)


def test_iy_spectrum_triplet():
    entries = iy_spectrum(IrrepLabel(1, 0))
    got = {(e.I2, e.Y3) for e in entries}
    # I = 1/2, Y = 1/3 and I = 0, Y = -2/3
    assert got == {(1, 1), (0, -2)}


def test_iy_spectrum_octet():
    entries = iy_spectrum(IrrepLabel(1, 1))
    got = sorted((Fraction(e.I2, 2), Fraction(e.Y3, 3)) for e in entries)
    assert got == sorted(
        [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)),
         (Fraction(1, 2), Fraction(-1)), (Fraction(1), Fraction(0))]
    )
    assert sum(e.size for e in entries) == 8


def test_iy_spectrum_singlet():
    entries = iy_spectrum(IrrepLabel(0, 0))
    assert len(entries) == 1 and entries[0].I2 == 0 and entries[0].Y3 == 0


def test_spectrum_counts_dimension():
    for p in range(11):
        for q in range(11):
            rep = IrrepLabel(p, q)
            assert sum(e.size for e in iy_spectrum(rep)) == dim(rep)


def test_cg_series_values():
    assert cg_series(1, 1) == [IrrepLabel(1, 1), IrrepLabel(0, 0)]
    assert cg_series(4, 0) == [IrrepLabel(4, 0)]
    assert cg_series(2, 2) == [IrrepLabel(2, 2), IrrepLabel(1, 1), IrrepLabel(0, 0)]
    assert dim(IrrepLabel(2, 0)) * dim(IrrepLabel(0, 2)) == 27 + 8 + 1


def test_cg_series_rejects_negative_labels():
    # the same check and message as the label itself
    for p, q in ((-1, 0), (2, -3)):
        with pytest.raises(ValueError, match=r"irrep labels must be nonnegative, got \("):
            cg_series(p, q)


def test_label_errors_echo_an_unprintable_int_by_its_size():
    # 10^5000 has more digits than the interpreter converts to text
    with pytest.raises(ValueError) as exc:
        IrrepLabel(-10**5000, 1)
    assert str(exc.value) == "irrep labels must be nonnegative, got (<int of 16610 bits>,1)"


def test_cg_dimension_identity():
    for p in range(21):
        for q in range(21):
            lhs = dim(IrrepLabel(p, 0)) * dim(IrrepLabel(0, q))
            assert lhs == sum(dim(rep) for rep in cg_series(p, q))


def test_k_of():
    assert k_of(IrrepLabel(0, 0)) == 3  # k = 3/2
    assert k_of(IrrepLabel(1, 1)) == 5  # k = 5/2
    assert k_of(IrrepLabel(4, 0)) == 7  # k = 7/2


def test_induced_multiplicities():
    assert induced_multiplicity("U1xU1", IrrepLabel(1, 1)) == 2
    assert induced_multiplicity("U1xU1", IrrepLabel(1, 0)) == 0
    assert induced_multiplicity("U1xU1", IrrepLabel(3, 0)) == 1
    assert induced_multiplicity("SU2", IrrepLabel(7, 3)) == 1
    assert induced_multiplicity("U2", IrrepLabel(2, 2)) == 1
    assert induced_multiplicity("U2", IrrepLabel(2, 1)) == 0
    assert induced_multiplicity("SO3", IrrepLabel(1, 2)) == 0
    assert induced_multiplicity("SO3", IrrepLabel(2, 2)) == 1
    with pytest.raises(ValueError):
        induced_multiplicity("SO5", IrrepLabel(1, 1))


def test_weight_conversion_examples():
    w = weight_from_rs(IrrepLabel(1, 0), 1, 0)
    assert (w.I, w.Y) == (Fraction(1, 2), Fraction(1, 3))
    assert w.M2 == w.I2  # the highest weight; another M by replace
    assert w.replace(M2=-1) == WeightLabel(I2=1, M2=-1, Y3=1, r=1, s=0)
    w = weight_from_iy(IrrepLabel(1, 1), 2, 0)  # I = 1, Y = 0
    assert (w.r, w.s) == (1, 1)
    with pytest.raises(InvalidWeightError):
        weight_from_iy(IrrepLabel(1, 0), 2, 0)  # I = 1 absent from (1,0)


def test_weight_conversion_round_trip():
    for p in range(6):
        for q in range(6):
            rep = IrrepLabel(p, q)
            for r in range(p + 1):
                for s in range(q + 1):
                    w = weight_from_rs(rep, r, s)
                    back = weight_from_iy(rep, w.I2, w.Y3)
                    assert (back.r, back.s) == (r, s)
                    assert back == w


def test_weight_label_validation():
    with pytest.raises(InvalidWeightError):
        WeightLabel(I2=1, M2=2, Y3=0, r=1, s=0)  # |M| > I
    with pytest.raises(InvalidWeightError):
        WeightLabel(I2=2, M2=1, Y3=0, r=1, s=1)  # parity mismatch
    with pytest.raises(InvalidWeightError):
        weight_from_rs(IrrepLabel(1, 0), 2, 0)
    with pytest.raises(InvalidWeightError):
        weight_from_iy(IrrepLabel(1, 0), 1, 0)  # non-integral (r, s)


def test_records_are_immutable_values():
    w = weight_from_rs(IrrepLabel(2, 1), 1, 1)
    with pytest.raises(AttributeError):
        w.M2 = 0
    with pytest.raises(AttributeError):
        del w.r
    same = WeightLabel(I2=2, M2=2, Y3=-2, r=1, s=1)
    assert w == same and hash(w) == hash(same)
    assert w != (2, 2, -2, 1, 1)

    class Shifted(IrrepLabel):
        pass

    assert IrrepLabel(1, 0) != Shifted(1, 0) and Shifted(1, 0) != IrrepLabel(1, 0)
    # records do not sort, not even two of one class
    with pytest.raises(TypeError):
        IrrepLabel(0, 1) < IrrepLabel(1, 0)
    with pytest.raises(TypeError):
        IrrepLabel(0, 0) >= Shifted(0, 1)
    assert repr(IrrepLabel(1, 2)) == "IrrepLabel(p=1, q=2)"
    assert repr(w) == "WeightLabel(I2=2, M2=2, Y3=-2, r=1, s=1)"
    assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w


def test_record_replace_validates_again():
    w = weight_from_rs(IrrepLabel(1, 1), 1, 0)
    assert w.replace(M2=-w.I2) == WeightLabel(I2=1, M2=-1, Y3=3, r=1, s=0)
    with pytest.raises(InvalidWeightError):
        w.replace(M2=w.I2 + 2)
    with pytest.raises(ValueError):
        IrrepLabel(1, 1).replace(q=-1)
    with pytest.raises(TypeError):
        w.replace(I=0)
