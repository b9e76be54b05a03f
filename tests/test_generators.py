import json

import numpy as np
import pytest

from oracles import binary_enumeration, knapsack_arrays, set_cover_dp, set_packing_dp
from probranch.generators import (
    gen_ca,
    gen_knapsack_uniform,
    gen_mkp,
    gen_scp,
    read_family,
    stream_rng,
    write_family,
)
from probranch import cli
from probranch.model import InvariantViolationError, MalformedDocumentError, check_feasible


class TestMkp:
    def test_coefficient_ranges(self):
        fam = gen_mkp(2, 4, 3, seed=7)
        a, _, _ = fam.template.constraint_arrays()
        assert np.all(a >= 1) and np.all(a <= 1000)
        assert np.all(a == np.round(a))
        c = fam.template.objective_vector()
        colmean = a.mean(axis=0)
        delta = c - colmean
        assert np.all(delta >= 1 - 1e-12) and np.all(delta <= 500 + 1e-12)

    def test_rhs_ratio_window(self):
        fam = gen_mkp(3, 10, 5, seed=7)
        a, _, _ = fam.template.constraint_arrays()
        center = 0.25 * a.sum(axis=1)
        for _, inst in fam.instances:
            _, _, b = inst.constraint_arrays()
            ratios = b / center
            assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)

    def test_determinism(self):
        one = gen_mkp(2, 6, 4, seed=11)
        two = gen_mkp(2, 6, 4, seed=11)
        for (_, a), (_, b) in zip(one.instances, two.instances):
            assert a == b

    def test_only_rhs_varies(self):
        fam = gen_mkp(2, 6, 4, seed=13)
        assert fam.varying_field == "rhs_b"
        a0, senses0, _ = fam.template.constraint_arrays()
        rhs = set()
        for _, inst in fam.instances:
            a, senses, b = inst.constraint_arrays()
            assert np.array_equal(a, a0) and senses == senses0
            assert np.array_equal(inst.objective_vector(), fam.template.objective_vector())
            rhs.add(tuple(b))
        assert len(rhs) == len(fam.instances)


class TestScp:
    def test_no_all_zero_rows(self):
        fam = gen_scp(50, 200, 0.05, 2, seed=17)
        a, senses, b = fam.template.constraint_arrays()
        assert np.all(a.sum(axis=1) >= 1)
        assert all(s == ">=" for s in senses)

    def test_cost_ratio_window(self):
        fam = gen_scp(10, 20, 0.2, 5, seed=19)
        base = fam.template.objective_vector()
        for _, inst in fam.instances:
            ratios = inst.objective_vector() / base
            assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)

    def test_density_concentrates(self):
        fam = gen_scp(100, 400, 0.05, 1, seed=23)
        a, _, _ = fam.template.constraint_arrays()
        density = a.mean()
        assert abs(density - 0.05) <= 0.01  # within 20% of requested

    def test_instances_lp_feasible(self):
        fam = gen_scp(8, 12, 0.25, 3, seed=29)
        for _, inst in fam.instances:
            ok, _ = check_feasible(inst, np.ones(inst.num_vars))
            assert ok

    def test_density_validation(self):
        with pytest.raises(ValueError):
            gen_scp(5, 5, 0.0, 1, seed=1)


class TestCa:
    def test_bundle_sizes_and_row_structure(self):
        fam = gen_ca(10, 30, 2, seed=31)
        a, senses, b = fam.template.constraint_arrays()
        sizes = a.sum(axis=0)  # items per bid
        assert np.all(sizes >= 2) and np.all(sizes <= 5)
        assert all(s == "<=" for s in senses)
        assert np.all(b == 1.0)

    def test_overlapping_bids_exclude_each_other(self):
        fam = gen_ca(6, 10, 1, seed=33)
        _, inst = fam.instances[0]
        a, _, _ = inst.constraint_arrays()
        # pick a row with two bids: both at once must violate it
        for r in range(a.shape[0]):
            members = np.nonzero(a[r])[0]
            if len(members) >= 2:
                values = np.zeros(inst.num_vars)
                values[members[:2]] = 1.0
                ok, violated = check_feasible(inst, values)
                assert not ok and r in violated
                break
        else:
            pytest.skip("no overlapping bids in this draw")

    def test_determinism(self):
        one = gen_ca(8, 14, 3, seed=35)
        two = gen_ca(8, 14, 3, seed=35)
        for (_, a), (_, b) in zip(one.instances, two.instances):
            assert a == b


class TestUniformKnapsack:
    def test_construction(self):
        uk = gen_knapsack_uniform(100, 0.3, seed=37)
        assert len(uk.instance.rows) == 1
        assert uk.instance.rows[0].rhs == pytest.approx(30.0)
        a, f, _ = knapsack_arrays(uk.instance)
        assert np.all(a > 0) and np.all(a < 1)
        assert np.all(f >= 0) and np.all(f <= 1 + 1e-15)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            gen_knapsack_uniform(10, 0.5, seed=1)
        with pytest.raises(ValueError):
            gen_knapsack_uniform(10, 0.0, seed=1)

    def test_determinism(self):
        a = gen_knapsack_uniform(50, 0.3, seed=39)
        b = gen_knapsack_uniform(50, 0.3, seed=39)
        assert a.instance == b.instance


class TestFamilyIo:
    def test_write_read_round_trip(self, tmp_path):
        fam = gen_scp(6, 9, 0.3, 4, seed=41)
        write_family(fam, tmp_path / "fam")
        back = read_family(tmp_path / "fam")
        assert back.kind == "scp"
        assert back.varying_field == fam.varying_field
        assert len(back.instances) == len(fam.instances)
        for (_, a), (_, b) in zip(fam.instances, back.instances):
            assert a == b

    def test_a_bad_member_row_names_its_file(self, tmp_path, capsys):
        path = write_family(gen_mkp(3, 16, 5, seed=2), tmp_path / "fam")
        doc = json.loads((path / "instance_0003.json").read_text())
        doc["rows"][2]["coeffs"][0][0] = 99
        (path / "instance_0003.json").write_text(json.dumps(doc))
        with pytest.raises(InvariantViolationError,
                           match=r"^instance_0003\.json: row 2: index 99 out of range \[0, 16\)$"):
            read_family(path)
        assert cli.main(["train", "--family", str(path), "--train-count", "4",
                         "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: instance_0003.json: row 2: index 99 out of range [0, 16)\n"

    def test_a_truncated_member_names_its_file_and_keeps_the_position(self, tmp_path, capsys):
        path = write_family(gen_mkp(3, 16, 5, seed=2), tmp_path / "fam")
        data = (path / "instance_0003.json").read_bytes()
        (path / "instance_0003.json").write_bytes(data[:-5])
        with pytest.raises(MalformedDocumentError, match=r"^instance_0003\.json: Expecting") as exc:
            read_family(path)
        assert exc.value.position == len(data) - 5
        assert cli.main(["train", "--family", str(path), "--train-count", "4",
                         "--out", str(tmp_path / "model.json")]) == 1
        assert capsys.readouterr().err.startswith("error: instance_0003.json: Expecting")


@pytest.mark.parametrize("kind", ["scp", "ca"])
def test_only_costs_vary(kind):
    fam = {"scp": lambda: gen_scp(10, 20, 0.2, 4, seed=19),
           "ca": lambda: gen_ca(8, 14, 4, seed=35)}[kind]()
    assert fam.varying_field == "cost_c"
    a0, senses0, b0 = fam.template.constraint_arrays()
    for _, inst in fam.instances:
        a, senses, b = inst.constraint_arrays()
        assert np.array_equal(a, a0) and senses == senses0 and np.array_equal(b, b0)
    costs = {tuple(inst.objective_vector()) for _, inst in fam.instances}
    assert len(costs) == len(fam.instances)


FAMILIES = {
    "mkp": lambda: [inst for _, inst in gen_mkp(3, 10, 8, seed=1).instances],
    # set-covering labels vary on 3 of seeds 1-10 at this size (ROADMAP item 1)
    "scp": lambda: [inst for _, inst in gen_scp(8, 14, 0.3, 8, seed=1).instances],
    "ca": lambda: [inst for _, inst in gen_ca(8, 16, 8, seed=1).instances],
    "knapsack": lambda: [gen_knapsack_uniform(12, 0.3, seed=s).instance for s in range(4)],
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_has_nonzero_optima_and_varied_labels(kind):
    insts = FAMILIES[kind]()
    sols = [binary_enumeration(inst) for inst in insts]
    assert all(sol.status == "optimal" for sol in sols)
    assert any(sol.objective != 0.0 for sol in sols)
    labels = {tuple(np.rint(sol.values[: inst.num_binary])) for sol, inst in zip(sols, insts)}
    assert len(labels) > 1


def test_mask_dps_match_binary_enumeration():
    # the acceptance suite trusts the mask DPs where 2^30 points are too many
    for s in range(1, 6):
        for dp, fam in ((set_cover_dp, gen_scp(10, 16, 0.3, 4, seed=s)),
                        (set_packing_dp, gen_ca(8, 16, 4, seed=s))):
            for _, inst in fam.instances:
                expected = binary_enumeration(inst).objective
                assert dp(inst) == pytest.approx(expected, abs=1e-9), (dp.__name__, s, inst.name)


def test_stream_rng_streams_are_independent():
    a = stream_rng(5, 0).random(4)
    b = stream_rng(5, 1).random(4)
    c = stream_rng(5, 0).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
