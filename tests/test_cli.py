import csv
import importlib
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from conftest import small_curves
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import deviation_trend, x_rows

import ecbits.curve as curve_module
import ecbits.extract as extract_module
from ecbits import charsum, cli
from ecbits.charsum import BoundReport, sum_V
from ecbits.curve import (
    Curve,
    ExhaustionError,
    coprime_part,
    factorize,
    find_curve,
    multiples,
    subgroup_of_order,
    subgroup_order_for_policy,
)
from ecbits.divpoly import DivisionPolynomials
from ecbits.field import (
    PreconditionError,
    PrimeField,
    ResourceBudgetError,
    field,
    primes_upto,
)
from ecbits.poly import Poly

# the module: the package's name ecbits.field is the field() cache
field_module = importlib.import_module("ecbits.field")


class TestFindCurve:
    def test_micro_example(self):
        fc = find_curve([7], 4)
        C = fc.curve
        assert (C.p, C.a, C.b) == (7, 1, 1)
        assert fc.t == 5
        assert fc.order == 5
        assert fc.structure.d1 == 1 and fc.structure.d2 == 5

    def test_deterministic(self):
        a = find_curve([11, 13], 4)
        b = find_curve([11, 13], 4)
        assert (a.curve, a.t) == (b.curve, b.t)

    def test_supersingular_only_range_exhausts(self):
        # no prime in an empty list
        with pytest.raises(ExhaustionError):
            find_curve([], 4)

    def test_exhaustion_reports_predicate_counts(self):
        # demand an impossibly large subgroup via a huge N
        with pytest.raises(ExhaustionError, match="rejected"):
            find_curve([7], 30)

    @pytest.mark.parametrize("big_n", [0, -2])
    def test_big_n_below_one_refused_before_the_scan(self, big_n):
        # an empty scan would exhaust: the precondition comes first
        for p_values in ([], [7]):
            with pytest.raises(PreconditionError, match=f"got N = {big_n}"):
                find_curve(p_values, big_n)

    def test_admissibility_predicates(self):
        fc = find_curve([11], 4)
        C = fc.curve
        assert C.b != 0 and C.is_ordinary()
        assert fc.t * fc.t >= C.p
        for q in (2, 3):
            assert fc.t % q != 0

    def test_policy_prime(self):
        fc = find_curve([11], 4, t_policy="prime")
        assert fc.t in factorize(fc.order)

    def test_cli_command(self, capsys):
        rc = cli.main(["find-curve", "--p", "7", "--big-n", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["p"], out["a"], out["b"], out["t"]) == (7, 1, 1, 5)


class TestCoprimePolicy:
    def test_coprime_part(self):
        assert coprime_part(720, 4) == 5
        assert coprime_part(14, 4) == 7
        assert coprime_part(64, 4) == 1

    def test_policy_values(self):
        assert subgroup_order_for_policy(14, 4, "largest") == 7
        assert subgroup_order_for_policy(5 * 49, 4, "largest") == 245
        assert subgroup_order_for_policy(5 * 49, 4, "prime") == 7

    def test_unknown_policy(self):
        with pytest.raises(PreconditionError, match="unknown t-policy"):
            subgroup_order_for_policy(10, 2, "weird")


class TestVerifyCommand:
    def test_micro_curve_passes(self, capsys):
        rc = cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                       "--n-max", "6"])
        assert rc == 0
        assert "verify: 47/47 checks passed\n" == capsys.readouterr().out

    def test_default_curves_follow_the_benchmark_reference(self, tmp_path, capsys):
        # the benchmark's verify argv writes the 227 checks of its reference,
        # in order; the reference file is only read
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "bench", "refs", "verify.json")) as fh:
            refs = json.load(fh)["records"]
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--jobs", "1", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        key = ("check", "p", "a", "b", "index")
        assert len(records) == len(refs) == 227
        assert [[r[k] for k in key] for r in records] == [[r[k] for k in key]
                                                          for r in refs]
        assert all(r["pass"] is True for r in records)

    def test_checks_run_once_each_in_table_order(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--p", "7", "--a", "1", "--b", "1", "--n-max", "6",
                         "--checks", "squares,xfg,xfg", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [(r["check"], r["index"]) for r in records] == (
            [("xfg", n) for n in range(1, 7)]
            + [("squares", [m, n]) for m in range(1, 7) for n in range(m + 1, 7)])

    def test_empty_check_list_is_config_error(self):
        rc = cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                       "--checks", ""])
        assert rc == 2

    def test_unknown_check_is_config_error(self):
        rc = cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                       "--checks", "nonsense"])
        assert rc == 2

    def test_fault_injection_fails_xfg(self, capsys, monkeypatch):
        # perturb one coefficient of psi_3 and watch verify_xfg catch it
        original = DivisionPolynomials.psi

        def corrupted(self, n):
            value = original(self, n)
            if n == 3:
                return value + Poly.const(self.curve.field, 1)
            return value

        monkeypatch.setattr(DivisionPolynomials, "psi", corrupted)
        rc = cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                       "--n-max", "3", "--checks", "xfg"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL xfg" in out
        assert "p=7" in out

    def test_report_file_written(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                       "--n-max", "4", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert all(r["pass"] for r in data["records"])

    def test_p197_all_checks_pass(self, tmp_path, capsys):
        # #E(F_197^2) = 39,168: one walk of it serves every n <= 8
        out = tmp_path / "verify.json"
        rc = cli.main(["verify", "--p", "197", "--a", "1", "--b", "2",
                       "--n-max", "8", "--out", str(out)])
        assert rc == 0
        records = json.loads(out.read_text())["records"]
        assert [*dict.fromkeys(r["check"] for r in records)] == [*cli._VERIFY]
        assert all(r["pass"] for r in records)
        assert "68/68 checks passed" in capsys.readouterr().out


def _sums_args(*flags):
    """The options of a sums run, as main sees them after the config file."""
    return cli._apply_config(cli.build_parser().parse_args(["sums", *flags]))


class TestSumsCommand:
    def test_single_u_cell_exact(self, tmp_path, capsys):
        out = tmp_path / "sums"
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--big-n", "2", "--experiments", "u",
                       "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "sums.json").read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["lhs"] == 8.0 and rec["exact"] is True
        assert rec["schema"] == 1
        assert {b["name"] for b in rec["bound_terms"]} == {"N^6*q", "N*q^2"}

    def test_sweep_record_count(self, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--big-n", "4", "--experiments", "u",
                       "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "sweep.json").read_text())
        assert [r["inputs"]["N"] for r in records] == [2, 3, 4]
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.count("\n") == 4  # header + 3 rows

    def test_cells_follow_the_benchmark_reference(self):
        # the benchmark's sums argv builds the cells of its 114 reference
        # records, in order; the reference file is only read
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "bench", "refs", "sums.json")) as fh:
            refs = json.load(fh)["records"]
        cells = cli.build_sum_cells(_sums_args(
            "--p", "1009", "--a", "1", "--b", "1", "--big-n", "6", "--d-max", "7",
            "--experiments", "u,v,lemma5,collisions", "--jobs", "1"))
        assert len(cells) == len(refs) == 114
        assert [(c.pop("experiment"), c) for c in cells] == [
            (r["experiment"], r["inputs"]) for r in refs]

    def test_warn_line_reads_the_one_slack(self, capsys, monkeypatch):
        argv = ["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "3",
                "--experiments", "u", "--jobs", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(cli, "SLACK", 1e-9)
        assert cli.main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("WARN u ratio ")
                   and line.endswith(" exceeds slack 1e-09") for line in err)

    def test_s_max_above_d_max_builds_the_same_cells(self):
        # no increasing d has more than d-max entries, so an s-max far
        # above d-max adds no cell and no work
        flags = ("--p", "1009", "--a", "1", "--b", "1", "--experiments", "lemma5",
                 "--d-max", "4")
        assert cli.build_sum_cells(_sums_args(*flags, "--s-max", str(10**12))) == \
            cli.build_sum_cells(_sums_args(*flags, "--s-max", "4"))

    def test_malformed_zero_c_rejected_before_compute(self):
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--experiments", "v", "--c", "0,0"])
        assert rc == 2

    def test_c_that_no_cell_takes_rejected(self, tmp_path, capsys):
        # v takes c of length 1 or 2 and lemma5 one per entry of d; a
        # vector some cell takes is used there, the other cells keep 1s
        base = ["sums", "--p", "1009", "--a", "1", "--b", "1", "--big-n", "3",
                "--d-max", "2", "--jobs", "1", "--out", str(tmp_path / "c")]
        for experiments, c in [("v", "1,2,3"), ("u", "1"), ("collisions", "1,1"),
                               ("lemma5", "1,2,3")]:
            assert cli.main(base + ["--experiments", experiments, "--c", c]) == 2
            assert f"no cell takes c = {c}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()
        assert cli.main(base + ["--experiments", "v,lemma5", "--c", "1,5"]) == 0
        records = json.loads((tmp_path / "c.json").read_text())
        assert [r["inputs"]["c"] for r in records] == [
            [1], [1], [1, 5], [1, 5], [1], [1], [1, 5]]

    def test_c_length_refused_before_curve_search(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("curve search before the --c length check")

        monkeypatch.setattr(cli, "find_curve", no_search)
        for experiments, c in [("v", "1,2,3"), ("lemma5", "1,2,3,4"),
                               ("v,lemma5,u", "1,2,3,4")]:
            rc = cli.main(["sums", "--p-min", "500000", "--p-max", "500200",
                           "--experiments", experiments, "--c", c, "--d-max", "3",
                           "--out", str(tmp_path / "c")])
            assert rc == 2
            assert f"no cell takes c = {c}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_c_whose_lemma5_cells_the_gcd_filter_drops(self, tmp_path, capsys):
        # N = 1 keeps t = #E = 1034 even, so d = (1, 2), the one d of
        # two entries at d-max 2, fails gcd(t, d_1 d_2) = 1
        rc = cli.main(["sums", "--p", "1009", "--a", "1", "--b", "1",
                       "--big-n", "1", "--experiments", "lemma5", "--d-max", "2",
                       "--c", "1,1", "--jobs", "1", "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: no cell takes c = 1,1: no lemma5 d of 2 entries has "
            "gcd(t, d_1...d_s) = 1\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("c", ["1,0", "1,1009", "0,2,-1009"])
    def test_zero_last_coefficient_refused_before_any_cell(self, tmp_path, capsys,
                                                          monkeypatch, c):
        # lemma5 cells need c_s != 0 mod p; the U cells listed first
        # must not run before a lemma5 cell refuses c
        def no_cell(cell):
            raise AssertionError("a cell ran before the c_s check")

        monkeypatch.setattr(cli, "run_sum_cell", no_cell)
        rc = cli.main(["sums", "--p", "1009", "--a", "1", "--b", "1",
                       "--experiments", "u,lemma5", "--c", c, "--big-n", "6",
                       "--jobs", "1", "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == ("precondition violated: the last "
                                           "coefficient c_s must be nonzero\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("c", ["211", "211,422"])
    def test_v_c_zero_mod_p_refused_before_any_cell(self, tmp_path, capsys,
                                                    monkeypatch, c):
        # sum_T reads c mod p: a c that a v cell takes must not vanish
        # there, refused before the U cells listed first
        def no_cell(cell):
            raise AssertionError("a cell ran before the c mod p check")

        monkeypatch.setattr(cli, "run_sum_cell", no_cell)
        rc = cli.main(["sums", "--p", "211", "--a", "1", "--b", "1",
                       "--experiments", "u,v", "--c", c, "--big-n", "3",
                       "--jobs", "1", "--out", str(tmp_path / "c")])
        assert rc == 2
        assert capsys.readouterr().err == ("precondition violated: coefficient "
                                           "vector must be nonzero\n")
        assert not list(tmp_path.iterdir())

    def test_supersingular_curve_refused_before_any_cell(self, tmp_path, capsys,
                                                         monkeypatch):
        # y^2 = x^3 + x over F_1019 (p = 3 mod 4) has #E = p + 1: lemma 5
        # needs an ordinary curve, so the seven U cells listed first must
        # not run before the lemma5 cells are refused
        u_calls = []

        def counting_sum_U(*args):
            u_calls.append(args)
            return charsum.sum_U(*args)

        monkeypatch.setattr(cli, "sum_U", counting_sum_U)
        rc = cli.main(["sums", "--p", "1019", "--a", "1", "--b", "0",
                       "--experiments", "u,lemma5", "--big-n", "8", "--jobs", "1",
                       "--out", str(tmp_path / "ss")])
        assert rc == 2
        assert capsys.readouterr().err == ("precondition violated: the bound "
                                           "requires an ordinary curve\n")
        assert u_calls == []
        assert not list(tmp_path.iterdir())

    def test_index_table_subgroup_read_once(self, tmp_path, monkeypatch):
        # E = Z/3 x Z/3 over F_13, t = 9: _torsion_cyclic cannot show E[9]
        # cyclic, so the uniqueness check reads the kernel of [9] from the
        # index table, and the v and lemma5 cells read the same cached H
        reads = []
        read = curve_module.rational_division_points

        def counted(*args):
            reads.append(args[1])
            return read(*args)

        monkeypatch.setattr(curve_module, "rational_division_points", counted)
        rc = cli.main(["sums", "--p", "13", "--a", "0", "--b", "3", "--big-n", "2",
                       "--experiments", "v,lemma5", "--d-max", "2", "--jobs", "1",
                       "--out", str(tmp_path / "nc")])
        assert rc == 0
        assert reads == [9]

    def test_non_unique_subgroup_refused_before_any_cell(self, tmp_path, capsys,
                                                         monkeypatch):
        # E = Z/2 x Z/2 under --t-policy prime: t = 2 has three subgroups,
        # refused where t is chosen, before the collisions cells listed
        # first and the lemma5 cells that would read one of them
        def no_cell(cell):
            raise AssertionError("a cell ran before the subgroup check")

        monkeypatch.setattr(cli, "run_sum_cell", no_cell)
        rc = cli.main(["sums", "--p", "7", "--a", "0", "--b", "6", "--t-policy",
                       "prime", "--big-n", "1", "--experiments", "collisions,lemma5",
                       "--n-max", "3", "--jobs", "1", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "no unique subgroup of order 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cyclic_kernel_that_the_weil_test_misses_runs(self, tmp_path):
        # y^2 = x^3 + 2x + 4 over F_43: E = Z/49, so under --t-policy prime
        # t = 7 has one subgroup, found by counting the kernel of [7]
        rc = cli.main(["sums", "--p", "43", "--a", "2", "--b", "4", "--t-policy",
                       "prime", "--big-n", "6", "--experiments", "v,lemma5",
                       "--d-max", "2", "--s-max", "2", "--jobs", "1",
                       "--out", str(tmp_path / "s")])
        assert rc == 0
        records = json.loads((tmp_path / "s.json").read_text())
        assert len(records) == 10 + 3
        assert {r["inputs"]["t"] for r in records} == {7}

    def test_unknown_experiment_rejected(self):
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--experiments", "nope"])
        assert rc == 2

    def test_v_and_lemma5_cells_run(self, tmp_path):
        out = tmp_path / "vl"
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--big-n", "4", "--d-max", "3",
                       "--experiments", "v,lemma5", "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "vl.json").read_text())
        kinds = {r["experiment"] for r in records}
        assert kinds == {"v", "lemma5"}

    def test_lemma5_sweep_walks_the_subgroup_once(self, tmp_path, monkeypatch):
        walked, filled = [], []
        fill = charsum.XColumns.__missing__

        def counting_walk(curve, G):
            walked.append(G)
            return multiples(curve, G)

        def counting_fill(columns, m):  # (point set size, multiplier)
            filled.append((len(columns.rows), m))
            return fill(columns, m)

        monkeypatch.setattr(charsum, "multiples", counting_walk)
        monkeypatch.setattr(charsum.XColumns, "__missing__", counting_fill)
        rc = cli.main(["sums", "--p", "1009", "--a", "1", "--b", "1",
                       "--experiments", "lemma5", "--d-max", "7", "--jobs", "1",
                       "--out", str(tmp_path / "l5")])
        assert rc == 0
        records = json.loads((tmp_path / "l5.json").read_text())
        assert len(records) == 63  # t = 517 = 11 * 47 admits every d <= 7
        assert len(walked) == 1
        # one column per multiplier d <= 7 over the 516 affine points of H
        assert filled == [(516, d) for d in range(1, 8)]
        assert Curve.order.cache_info().misses == 1  # #E counted once
        # the lhs is bit for bit the per-point x_rows formulation
        C = Curve(field(1009), 1, 1)
        H = [Q for Q in subgroup_of_order(C, 517) if not Q.is_infinity]
        rows = x_rows(C, H, 7)
        for rec in records:
            d, c = rec["inputs"]["d"], rec["inputs"]["c"]
            total = 0j
            for xs in rows:
                total += C.field.psi(sum(ci * xs[di - 1] for ci, di in zip(c, d)))
            assert rec["lhs"] == abs(total)
        # the five U cells, N = 2..6, read columns 1..N of E's 518 classes
        # {P, -P} (O, the one point of order 2 and 516 pairs): 6 fills
        # for the sweep, where a fill per cell would make 2 + 3 + ... + 6
        # = 20
        filled.clear()
        rc = cli.main(["sums", "--p", "1009", "--a", "1", "--b", "1",
                       "--experiments", "u", "--big-n", "6", "--jobs", "1",
                       "--out", str(tmp_path / "u")])
        assert rc == 0
        assert len(json.loads((tmp_path / "u.json").read_text())) == 5
        assert filled == [(518, n) for n in range(1, 7)]

    def test_range_sweep_counts_the_found_curve_once(self, tmp_path, monkeypatch):
        counted = []
        chi_table = PrimeField.chi_table

        def counting_chi_table(F):  # read once per #E chi sum
            counted.append(F.p)
            return chi_table(F)

        monkeypatch.setattr(PrimeField, "chi_table", counting_chi_table)
        rc = cli.main(["sums", "--p-min", "1000", "--p-max", "1100",
                       "--experiments", "lemma5", "--d-max", "1", "--s-max", "1",
                       "--jobs", "1", "--out", str(tmp_path / "l5")])
        assert rc == 0
        records = json.loads((tmp_path / "l5.json").read_text())
        assert [(r["inputs"]["p"], r["inputs"]["a"], r["inputs"]["b"])
                for r in records] == [(1009, 1, 1)]  # the first candidate
        assert counted == [1009]

    def test_collisions_cells(self, tmp_path):
        out = tmp_path / "col"
        rc = cli.main(["sums", "--n-max", "5", "--experiments", "collisions",
                       "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "col.json").read_text())
        for rec in records:
            assert rec["exact"] is True
            assert rec["ratio"] <= 1.0

    def test_collisions_to_n_60_skip_no_cell(self, tmp_path, capsys):
        # the pair loop's (N-1)^(2k) cost skipped the k = 2 cells up to
        # N = 60; inclusion-exclusion costs 2^|support| (N-1)^k
        rc = cli.main(["sums", "--experiments", "collisions", "--n-max", "60",
                       "--jobs", "1", "--out", str(tmp_path / "c")])
        assert rc == 0
        assert "skipped" not in capsys.readouterr().err
        records = json.loads((tmp_path / "c.json").read_text())
        assert len(records) == 4 * 59  # k = 1 and the three k = 2 supports
        for rec in records:
            k, N = rec["inputs"]["k"], rec["inputs"]["N"]
            assert rec["lhs"] <= k * N ** (2 * k - 1)


class TestExtractCommand:
    def test_toy_stream_and_exact_deviation(self, tmp_path, capsys):
        out = tmp_path / "toy"
        rc = cli.main(["extract", "--p", "7", "--a", "1", "--b", "1",
                       "--big-n", "4", "--k", "1", "--ell", "1",
                       "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "toy.bits").read_bytes() == b"\x00"
        payload = json.loads((tmp_path / "toy.json").read_text())
        assert payload["stream_bits"] == 4
        assert payload["deviation"]["total"] == "10"

    def test_missing_out_is_config_error(self):
        rc = cli.main(["extract", "--p", "7", "--a", "1", "--b", "1"])
        assert rc == 2

    def test_exact_path_searches_one_generator(self, tmp_path, monkeypatch):
        searched = []
        search = cli.subgroup_generator

        def counted(C, t):
            searched.append(t)
            return search(C, t)

        def no_subgroup(*args, **kwargs):
            raise AssertionError("H rebuilt by subgroup_of_order")

        monkeypatch.setattr(cli, "subgroup_generator", counted)
        monkeypatch.setattr(curve_module, "subgroup_generator", counted)
        monkeypatch.setattr(cli, "subgroup_of_order", no_subgroup)
        rc = cli.main(["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "2",
                       "--ell", "2", "--big-n", "6", "--out", str(tmp_path / "e")])
        assert rc == 0
        assert searched == [1579]
        payload = json.loads((tmp_path / "e.json").read_text())
        assert len(payload["deviation"]["per_point"]) == 1579

    def test_exact_path_walks_the_subgroup_once(self, tmp_path, monkeypatch):
        walks = []  # [points read, ran to its end] of each walk of multiples
        multiples = curve_module.multiples

        def counting_multiples(curve, P):
            walk = [0, False]
            walks.append(walk)
            for xy in multiples(curve, P):
                walk[0] += 1
                yield xy
            walk[1] = True

        for module in (curve_module, charsum, extract_module):
            monkeypatch.setattr(module, "multiples", counting_multiples)
        rc = cli.main(["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "2",
                       "--ell", "2", "--big-n", "6", "--out", str(tmp_path / "e")])
        assert rc == 0
        # t = 1579 is prime: Delta reads t // 2 points of one walk of G, the
        # bitstream its first N^k = 36, and neither walk runs to its end
        assert sorted(walks) == [[36, False], [789, False]]

    def test_gcd_hypothesis_violation_named(self, tmp_path, capsys, monkeypatch,
                                            micro_curve, micro_points):
        argv = ["extract", "--p", "7", "--a", "1", "--b", "1", "--big-n", "5",
                "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2  # both policies strip 5 from #E = 5: t = 1
        # an order that ignores the policy reaches the gcd(N!, t) check
        monkeypatch.setattr(cli, "subgroup_order_for_policy", lambda n, N, policy: n)
        capsys.readouterr()
        assert cli.main(argv) == 2  # 5 | t = 5 violates gcd(N!, t) = 1
        with pytest.raises(PreconditionError) as from_v:
            sum_V(micro_curve, micro_points, (1,), 5)
        assert capsys.readouterr().err == f"precondition violated: {from_v.value}\n"

    def test_sampled_deviation_path(self, tmp_path):
        rc = cli.main(["extract", "--p", "11", "--a", "1", "--b", "1",
                       "--big-n", "4", "--ell", "1", "--delta-budget", "2",
                       "--samples", "15", "--out", str(tmp_path / "s")])
        assert rc == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        dev = payload["deviation_sampled"]
        assert dev["samples"] == 15
        assert 0 <= dev["mean_rel_deviation"] <= dev["max_rel_deviation"] <= 0.5


class TestReportCommand:
    def test_rerun_reproduces(self, tmp_path, capsys):
        out = tmp_path / "sums"
        assert cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                         "--big-n", "3", "--experiments", "u",
                         "--out", str(out)]) == 0
        rc = cli.main(["report", "--in", str(tmp_path / "sums.json")])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_tampered_lhs_detected(self, tmp_path, capsys):
        out = tmp_path / "sums"
        cli.main(["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "2",
                  "--experiments", "u", "--out", str(out)])
        path = tmp_path / "sums.json"
        records = json.loads(path.read_text())
        records[0]["lhs"] += 1
        path.write_text(json.dumps(records))
        rc = cli.main(["report", "--in", str(path)])
        assert rc == 1

    def test_exact_lhs_above_2_53_is_written_and_replayed_exactly(
            self, tmp_path, capsys, monkeypatch):
        big = 2**53 + 1  # the nearest float is 2^53

        def big_u(curve, N):
            return big, BoundReport(lhs=float(big), rhs_terms=[("N^6*q", 1.0)])

        monkeypatch.setattr(cli, "sum_U", big_u)
        path = tmp_path / "sums.json"
        assert cli.main(["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "2",
                         "--experiments", "u", "--jobs", "1",
                         "--out", str(tmp_path / "sums")]) == 0
        records = json.loads(path.read_text())
        assert '"lhs": 9007199254740993,' in path.read_text()
        assert records[0]["lhs"] == big
        assert cli.main(["report", "--in", str(path)]) == 0
        records[0]["lhs"] = 2**53
        path.write_text(json.dumps(records))
        capsys.readouterr()
        assert cli.main(["report", "--in", str(path)]) == 1
        assert "FAIL u" in capsys.readouterr().out

    def test_float_exact_lhs_still_replays(self, tmp_path):
        # schema 1 files written before exact values were ints hold floats
        path = tmp_path / "sums.json"
        assert cli.main(["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "3",
                         "--experiments", "u,collisions", "--n-max", "3",
                         "--jobs", "1", "--out", str(tmp_path / "sums")]) == 0
        records = json.loads(path.read_text())
        assert all(type(r["lhs"]) is int for r in records)
        for r in records:
            r["lhs"] = float(r["lhs"])
        path.write_text(json.dumps(records))
        assert cli.main(["report", "--in", str(path)]) == 0

    def test_missing_in_is_config_error(self):
        assert cli.main(["report"]) == 2

    def test_unknown_experiment_names_the_record(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"experiment": "w", "inputs": {"N": 2},
                                     "lhs": 0, "exact": True}]))
        assert cli.main(["report", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path} record 0 (w inputs={{'N': 2}}): "
            "unknown experiment 'w'\n")


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p = 7\na = 1\nb = 1\nn-max = 4\n# comment\n")
        rc = cli.main(["verify", "--config", str(cfg)])
        assert rc == 0

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p=7\na=1\nb=1\nbig-n=2\n")
        out = tmp_path / "s"
        rc = cli.main(["sums", "--config", str(cfg), "--big-n", "3",
                       "--experiments", "u", "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "s.json").read_text())
        assert [r["inputs"]["N"] for r in records] == [2, 3]

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("just nonsense\n")
        rc = cli.main(["verify", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("lines,message", [
        ("big_nn=6", "config key 'big_nn' names no option"),
        ("config=other.cfg", "config key 'config' names no option"),
        ("big-n=3\nbig-n=3", "config key 'big-n' sets --big-n a second time"),
        ("big-n=3\nbig_n=3", "config key 'big_n' sets --big-n a second time"),
        ("in=a.json\ninfile=a.json", "config key 'infile' sets --in a second time"),
        # sums warns at the fixed cli.SLACK: these options are gone
        ("slack_u=5", "config key 'slack_u' names no option"),
        ("slack-v=5", "config key 'slack-v' names no option"),
        ("slack_l5=5", "config key 'slack_l5' names no option"),
        # Delta's bound is evaluated at the fixed extract.BOUND_CONSTANT
        ("slack_delta=2", "config key 'slack_delta' names no option"),
    ], ids=["misspelt", "config", "repeated", "two-spellings", "in-infile",
            "slack-u", "slack-v", "slack-l5", "slack-delta"])
    def test_bad_key_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                            lines, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work before the config check")

        monkeypatch.setattr(cli, "_curve_and_t", no_work)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"p=7\na=1\nb=1\n{lines}\n")
        rc = cli.main(["sums", "--config", str(cfg), "--experiments", "u",
                       "--jobs", "1", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [f.name for f in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("key", ["big-n", "big_n"])
    def test_flag_and_name_spellings(self, tmp_path, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"p=7\na=1\nb=1\n{key}=3\n")
        rc = cli.main(["sums", "--config", str(cfg), "--experiments", "u",
                       "--jobs", "1", "--out", str(tmp_path / "s")])
        assert rc == 0
        records = json.loads((tmp_path / "s.json").read_text())
        assert [r["inputs"]["N"] for r in records] == [2, 3]

    @pytest.mark.parametrize("key", ["in", "infile"])
    def test_in_replays_a_report(self, tmp_path, capsys, key):
        assert cli.main(["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "3",
                         "--experiments", "u", "--jobs", "1",
                         "--out", str(tmp_path / "s")]) == 0
        cfg = tmp_path / "r.conf"
        cfg.write_text(f"{key}={tmp_path / 's.json'}\n")
        capsys.readouterr()
        assert cli.main(["report", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("OK   u") == 2


class TestBadInput:
    @pytest.mark.parametrize("argv,message", [
        (["report", "--in", "{tmp}/verify.json"], "'inputs'"),
        (["report", "--in", "{tmp}/missing.json"], "No such file"),
        (["report", "--in", "{tmp}/p8.json"], "not prime"),
        (["verify", "--config", "{tmp}/missing.cfg"], "No such file"),
        (["verify", "--p", "8", "--a", "1", "--b", "1"], "not prime"),
        (["sums", "--p", "2147483659", "--a", "1", "--b", "1"],
         "out of supported range"),
        (["sums", "--p", "7", "--a", "0", "--b", "0"], "singular curve"),
        (["extract", "--p", "7", "--out", "{tmp}/x"], "--p needs --a and --b as well"),
        (["report", "--in", "{tmp}/pstr.json"], "record 0 (u inputs={'p': '7'"),
        (["report", "--in", "{tmp}/no_n.json"], "record 0 (u inputs={'p': 7, 'a': 1, "
                                                "'b': 1}): KeyError('N')"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--ell", "20",
          "--out", "{tmp}/x"], "2^ell must be smaller than p = 1549, got ell = 20"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "0",
          "--out", "{tmp}/x"], "need k >= 1 and ell >= 1, got k = 0"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--ell", "0",
          "--out", "{tmp}/x"], "need k >= 1 and ell >= 1, got k = 1, ell = 0"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--big-n", "0",
          "--out", "{tmp}/x"], "need N >= 1, got N = 0"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--samples", "0",
          "--delta-budget", "1", "--out", "{tmp}/x"],
         "need samples >= 1, got samples = 0"),
        (["report", "--in", "{tmp}/v_t3.json"], "t = 3 does not divide #E = 5"),
        (["report", "--in", "{tmp}/v_t0.json"], "subgroup order must be positive"),
        (["report", "--in", "{tmp}/u_n0.json"], "N must be positive"),
        (["report", "--in", "{tmp}/v_n-1.json"], "N must be positive"),
        (["report", "--in", "{tmp}/collisions_k0.json"],
         "need a length-k coefficient tuple"),
        (["report", "--in", "{tmp}/collisions_n0.json"], "N must be positive"),
        (["report", "--in", "{tmp}/lhs_huge.json"], "int too large to convert"),
        (["verify", "--n-max", "0"], "need n-max >= 1, got n-max = 0"),
        (["verify", "--n-max", "-3"], "need n-max >= 1, got n-max = -3"),
        (["sums", "--experiments", "collisions", "--n-max", "1", "--out", "{tmp}/x"],
         "experiment collisions builds no cells: need n-max >= 2, got n-max = 1"),
        (["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "u",
          "--big-n", "1", "--out", "{tmp}/x"],
         "experiment u builds no cells: need big-n >= 2, got big-n = 1"),
        (["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "v",
          "--big-n", "0", "--out", "{tmp}/x"],
         "experiment v builds no cells: need big-n >= 2, got big-n = 0"),
        (["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "lemma5",
          "--d-max", "0", "--out", "{tmp}/x"],
         "experiment lemma5 builds no cells: need d-max >= 1 and s-max >= 1, "
         "got d-max = 0, s-max = 3"),
        (["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "lemma5",
          "--s-max", "0", "--out", "{tmp}/x"],
         "experiment lemma5 builds no cells: need d-max >= 1 and s-max >= 1, "
         "got d-max = 8, s-max = 0"),
        (["sums", "--p-min", "40000", "--p-max", "40100", "--experiments", "u",
          "--big-n", "2", "--out", "{tmp}/missing/s"], "/missing' does not exist"),
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--out",
          "{tmp}/missing/x"], "/missing' does not exist"),
        (["verify", "--out", "{tmp}/missing/v.json"], "/missing' does not exist"),
        (["find-curve", "--p-min", "100", "--p-max", "120", "--out",
          "{tmp}/missing/f.json"], "/missing' does not exist"),
        # a missing --out or --in, and a check list that names no check
        (["extract", "--p", "1549", "--a", "1", "--b", "3"],
         "--out is required for extract"),
        (["report"], "--in is required for report"),
        (["verify", "--checks", ",", "--out", "{tmp}/x.json"], "empty check list"),
        (["verify", "--checks", "degrees,nope", "--out", "{tmp}/x.json"],
         "unknown checks: ['nope']"),
        # the experiment list and --c, read before the curve is built
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--experiments", ",",
          "--out", "{tmp}/x"], "no experiments requested"),
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--experiments", "u,w",
          "--out", "{tmp}/x"], "unknown experiment 'w'"),
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--experiments", "v",
          "--c", "0,0", "--out", "{tmp}/x"], "coefficient vector c must be nonzero"),
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--experiments", "v",
          "--c", "x,1", "--out", "{tmp}/x"], "bad coefficient vector 'x,1'"),
        # no curve, and an empty prime range to search
        (["sums", "--experiments", "u", "--out", "{tmp}/x"],
         "need --p or both --p-min and --p-max"),
        (["extract", "--p-min", "200", "--p-max", "100", "--out", "{tmp}/x"],
         "empty prime range"),
        # N^k = 9,998,244 codes: the stream alone took 30 s and 1.3 GB
        (["extract", "--p-min", "5000", "--p-max", "5200", "--t-policy", "prime",
          "--k", "2", "--ell", "4", "--big-n", "3162", "--delta-budget", "1",
          "--samples", "1", "--out", "{tmp}/x"],
         "sampled deviation sweeps support k = 1"),
        # E = Z/2 x Z/2: three subgroups of order 2
        (["extract", "--p", "7", "--a", "0", "--b", "6", "--t-policy", "prime",
          "--big-n", "1", "--out", "{tmp}/x"],
         "no unique subgroup of order 2: kernel of [t] has 4 points"),
        # refused by delta, after the generator search
        (["extract", "--p", "7", "--a", "1", "--b", "1", "--k", "7", "--big-n", "4",
          "--out", "{tmp}/x"], "need p > k, got p = 7, k = 7"),
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--jobs", "0", "--out", "{tmp}/x"],
         "--jobs must be at least 1, got 0"),
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--jobs", "-3", "--out", "{tmp}/x"],
         "--jobs must be at least 1, got -3"),
        # refused by find_curve before it scans
        (["find-curve", "--p-min", "100", "--p-max", "200", "--big-n", "0"],
         "need N >= 1, got N = 0"),
        (["find-curve", "--p-min", "100", "--p-max", "200", "--big-n", "-2"],
         "need N >= 1, got N = -2"),
        # the sampled path refuses the three subgroups of order 2 as well
        (["extract", "--p", "7", "--a", "0", "--b", "6", "--t-policy", "prime",
          "--big-n", "1", "--k", "1", "--ell", "1", "--samples", "3",
          "--delta-budget", "1", "--out", "{tmp}/x"],
         "no unique subgroup of order 2: kernel of [t] has 4 points"),
        # E = Z/7 x Z/7 over F_43: eight subgroups of order 7
        (["sums", "--p", "43", "--a", "0", "--b", "3", "--t-policy", "prime",
          "--big-n", "6", "--out", "{tmp}/x"],
         "no unique subgroup of order 7: kernel of [t] has 49 points"),
        (["sums", "--p", "211", "--a", "1", "--b", "1", "--experiments", "u,u",
          "--big-n", "3", "--out", "{tmp}/x"],
         "experiment u is listed more than once"),
        # #E = 5 has no prime factor above N = 6: H = {O}
        (["sums", "--p", "7", "--a", "1", "--b", "1", "--t-policy", "prime",
          "--big-n", "6", "--experiments", "v,lemma5", "--jobs", "1",
          "--out", "{tmp}/x"], "subgroup policy produced trivial t = 1"),
    ])
    def test_one_line_exit_2(self, tmp_path, capsys, argv, message):
        assert cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                         "--n-max", "2", "--out", str(tmp_path / "verify.json")]) == 0
        capsys.readouterr()
        # a sums record whose curve lives over F_8
        (tmp_path / "p8.json").write_text(json.dumps([{
            "experiment": "u", "inputs": {"p": 8, "a": 1, "b": 1, "N": 2},
            "lhs": 0.0, "exact": True}]))
        # sums records with a string p, with no N, and ones the library
        # rejects with a plain ValueError
        curve = {"p": 7, "a": 1, "b": 1}  # #E = 5
        for name, kind, inputs in (
                ("pstr", "u", {"p": "7", "a": 1, "b": 1, "N": 2}),
                ("no_n", "u", {"p": 7, "a": 1, "b": 1}),
                ("v_t3", "v", dict(curve, t=3, N=2, k=1, c=[1])),
                ("v_t0", "v", dict(curve, t=0, N=2, k=1, c=[1])),
                ("u_n0", "u", dict(curve, N=0)),
                ("v_n-1", "v", dict(curve, t=5, N=-1, k=1, c=[1])),
                ("collisions_k0", "collisions", {"N": 2, "k": 0, "c": []}),
                ("collisions_n0", "collisions", {"N": 0, "k": 1, "c": [1]})):
            (tmp_path / f"{name}.json").write_text(json.dumps([{
                "experiment": kind, "inputs": inputs, "lhs": 0.0, "exact": True}]))
        # an exact count beyond the float range
        (tmp_path / "lhs_huge.json").write_text(json.dumps([{
            "experiment": "u", "inputs": dict(curve, N=2), "lhs": 10**400,
            "exact": True}]))
        rc = cli.main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and message in err
        assert not list(tmp_path.glob("*.bits"))
        assert not list(tmp_path.glob("x.*"))

    @pytest.mark.parametrize("flag", ["--slack-u", "--slack-v", "--slack-l5",
                                      "--slack-delta"])
    def test_removed_slack_flag_is_an_argparse_error(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sums", "--p", "7", "--a", "1", "--b", "1", flag, "5",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--experiments", "u", "--big-n", "1"],
        ["--experiments", "v", "--big-n", "0"],
        ["--experiments", "lemma5", "--d-max", "0"],
        ["--experiments", "lemma5", "--s-max", "0"],
    ], ids=["u", "v", "lemma5-d", "lemma5-s"])
    def test_empty_ranges_exit_before_curve_search(self, tmp_path, capsys,
                                                   monkeypatch, flags):
        def no_search(*args, **kwargs):
            raise AssertionError("curve search before the option-range check")

        monkeypatch.setattr(cli, "find_curve", no_search)
        rc = cli.main(["sums", "--p-min", "40000", "--p-max", "40100", *flags,
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "builds no cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "3", "--ell", "1",
          "--big-n", "1000", "--out", "{tmp}/x"],
         "N^k = 1000^3 codes per point exceed the budget 10000000"),
        (["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "lemma5",
          "--d-max", "30", "--s-max", "30", "--jobs", "1", "--out", "{tmp}/x"],
         "experiment lemma5 builds more than 100000 cells: got d-max = 30, s-max = 30"),
        (["extract", "--p", "2147483647", "--a", "1", "--b", "1", "--jobs", "1",
          "--out", "{tmp}/x"],
         "p = 2147483647 exceeds the point-counting budget 10000000"),
    ])
    def test_one_line_exit_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                             argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("curve search before the budget check")

        p = int(argv[argv.index("--p") + 1])
        if p <= field_module.CHI_TABLE_BUDGET:
            # the code and cell budgets come before the curve is built;
            # the point-count budget is field's, at the first #E count
            monkeypatch.setattr(cli, "_curve_and_t", no_work)
        rc = cli.main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and message in err
        assert not list(tmp_path.iterdir())
        if p > field_module.CHI_TABLE_BUDGET:
            assert field(p)._chi_table is None

    def test_subgroup_budget_exit_3_before_any_work(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("generator search before the subgroup budget")

        monkeypatch.setattr(cli, "subgroup_generator", no_work)
        # the subgroup budget, which run_extract checks before the search
        monkeypatch.setattr(curve_module, "SUBGROUP_BUDGET", 1000)
        rc = cli.main(["extract", "--p", "1549", "--a", "1", "--b", "3",
                       "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == ("resource budget exceeded: t = 1579 exceeds subgroup "
                       "budget 1000\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["find-curve", "--p", "1009"],
        ["find-curve", "--p-min", "1000", "--p-max", "1100"],
        ["sums", "--p", "1009", "--a", "1", "--b", "1", "--experiments", "u",
         "--jobs", "1"],
        ["extract", "--p", "1009", "--a", "1", "--b", "1", "--jobs", "1"],
        ["verify", "--p", "1009", "--a", "1", "--b", "1", "--checks",
         "division_points", "--n-max", "2"],
    ], ids=["find-curve", "find-curve-range", "sums", "extract", "verify"])
    def test_count_budget_exit_3_without_a_chi_table(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        monkeypatch.setattr(field_module, "CHI_TABLE_BUDGET", 1000)
        rc = cli.main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == ("resource budget exceeded: p = 1009 "
                                           "exceeds the point-counting budget 1000\n")
        assert field(1009)._chi_table is None
        assert not list(tmp_path.iterdir())

    def test_lemma5_cell_budget_edges(self):
        assert cli._lemma5_cell_count(16, 16) == 2**16 - 1
        assert cli._lemma5_cell_count(10**5, 1) == cli.CELL_BUDGET
        for d_max, s_max in [(17, 17), (10**5 + 1, 1), (10**100, 10**100)]:
            assert cli._lemma5_cell_count(d_max, s_max) > cli.CELL_BUDGET

    @pytest.mark.parametrize("flags,cells,got", [
        (["--experiments", "u", "--big-n", "11"], 10, "big-n = 11"),
        (["--experiments", "v", "--big-n", "9"], 10, "big-n = 9"),
        (["--experiments", "lemma5", "--d-max", "4", "--s-max", "2"], 10,
         "d-max = 4, s-max = 2"),
        (["--experiments", "collisions", "--n-max", "4"], 12, "n-max = 4"),
    ], ids=["u", "v", "lemma5", "collisions"])
    def test_cell_budget_exit_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                flags, cells, got):
        # each kind's cells, before the gcd filter, against the one budget
        argv = ["sums", "--p", "211", "--a", "1", "--b", "1", *flags, "--jobs", "1"]
        monkeypatch.setattr(cli, "CELL_BUDGET", cells)
        assert 0 < len(cli.build_sum_cells(_sums_args(*argv[1:]))) <= cells

        def no_work(*args, **kwargs):
            raise AssertionError("curve search before the cell budget")

        monkeypatch.setattr(cli, "_curve_and_t", no_work)
        monkeypatch.setattr(cli, "CELL_BUDGET", cells - 1)
        rc = cli.main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 3
        kind = flags[1]
        assert capsys.readouterr().err == (
            f"resource budget exceeded: experiment {kind} builds more than "
            f"{cells - 1} cells: got {got}\n")
        assert not list(tmp_path.iterdir())

    def test_pattern_budget_exit_3_before_the_generator_search(self, tmp_path,
                                                               capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("generator search before the pattern budget")

        monkeypatch.setattr(cli, "subgroup_generator", no_work)
        rc = cli.main(["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "12",
                       "--ell", "2", "--big-n", "1", "--jobs", "1",
                       "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: 2^(k*ell) = 2^24 patterns per point "
            "exceed the budget 65536\n")
        assert not list(tmp_path.iterdir())

    def test_sample_budget_exit_3_before_any_walk(self, tmp_path, capsys,
                                                  monkeypatch):
        # 33 samples at N = 1 read 33 windows: at the budget, and run
        argv = ["extract", "--p-min", "100", "--p-max", "200", "--delta-budget", "1",
                "--big-n", "1", "--jobs", "1"]
        monkeypatch.setattr(extract_module, "SAMPLE_BUDGET", 33)
        assert cli.main(argv + ["--samples", "33", "--out", str(tmp_path / "ok")]) == 0

        def no_work(*args, **kwargs):
            raise AssertionError("sampled walk before the sample budget")

        for way in ("_table_windows", "_walk_windows"):
            monkeypatch.setattr(extract_module, way, no_work)
        capsys.readouterr()
        rc = cli.main(argv + ["--samples", "34", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: samples * N = 34 * 1 window reads exceed "
            "the budget 33\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ok.bits", "ok.json"]

    @pytest.mark.parametrize("curve", [[], ["--p", "7", "--a", "1", "--b", "1"]],
                             ids=["default-curves", "p"])
    def test_verify_n_max_budget_exit_3_before_any_curve(self, tmp_path, capsys,
                                                         monkeypatch, curve):
        def no_work(*args, **kwargs):
            raise AssertionError("curve built before the n-max budget")

        for name in ("find_curve", "Curve", "DivisionPolynomials"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli, "VERIFY_N_MAX", 3)
        rc = cli.main(["verify", *curve, "--n-max", "4",
                       "--out", str(tmp_path / "v.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: n-max = 4 exceeds budget 3\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("checks", ["torsion", "squares", "squares,torsion"])
    @pytest.mark.parametrize("curve", [[], ["--p", "7", "--a", "1", "--b", "1"]],
                             ids=["default-curves", "p"])
    def test_verify_with_no_records_exits_2_before_any_curve(self, tmp_path, capsys,
                                                             monkeypatch, checks, curve):
        def no_work(*args, **kwargs):
            raise AssertionError("curve built for a verify that checks nothing")

        for name in ("find_curve", "Curve", "DivisionPolynomials"):
            monkeypatch.setattr(cli, name, no_work)
        rc = cli.main(["verify", *curve, "--checks", checks, "--n-max", "1",
                       "--out", str(tmp_path / "v.json")])
        assert rc == 2
        names = "torsion,squares" if "," in checks else checks  # in table order
        assert capsys.readouterr().err == (
            f"config error: check {names} builds no records: "
            "need n-max >= 2, got n-max = 1\n")
        assert not list(tmp_path.iterdir())

    def test_verify_at_n_max_1_keeps_the_checks_that_build_records(self, tmp_path):
        out = tmp_path / "v.json"
        assert cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                         "--checks", "degrees,torsion", "--n-max", "1",
                         "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [(r["check"], r["index"]) for r in records] == [("degrees", 1)]


def _strict_json(path):
    """The JSON document at path; NaN and Infinity are not JSON."""
    def reject(name):
        raise ValueError(f"{path.name} holds the non-JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_outputs_are_strict_json(tmp_path):
    runs = {
        "sums.json": ["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "4",
                      "--d-max", "3", "--n-max", "3", "--out", "{}/sums"],
        "exact.json": ["extract", "--p", "7", "--a", "1", "--b", "1", "--big-n", "4",
                       "--out", "{}/exact"],
        "sampled.json": ["extract", "--p", "11", "--a", "1", "--b", "1",
                         "--big-n", "4", "--delta-budget", "2", "--samples", "5",
                         "--out", "{}/sampled"],
        "verify.json": ["verify", "--p", "7", "--a", "1", "--b", "1", "--n-max", "3",
                        "--out", "{}/verify.json"],
        "find.json": ["find-curve", "--p-min", "100", "--p-max", "120",
                      "--out", "{}/find.json"],
    }
    for name, argv in runs.items():
        assert cli.main([a.format(tmp_path) for a in argv] + ["--jobs", "1"]) == 0
        assert _strict_json(tmp_path / name)
    assert "deviation" in _strict_json(tmp_path / "exact.json")
    assert "deviation_sampled" in _strict_json(tmp_path / "sampled.json")


def test_searched_curve_skips_unread_group_structure(tmp_path, capsys, monkeypatch):
    def no_structure(*args, **kwargs):
        raise AssertionError("group structure built for a caller that drops it")

    monkeypatch.setattr(curve_module, "group_structure", no_structure)
    p_range = ["--p-min", "100", "--p-max", "120"]
    assert cli.main(["sums", *p_range, "--experiments", "u", "--big-n", "2",
                     "--jobs", "1", "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["extract", *p_range, "--out", str(tmp_path / "x")]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(["find-curve", *p_range]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["d1"] * found["d2"] == found["order"]


# Small values for every flag: p < 200 including non-primes (verify walks
# all of E(F_p^2) once per curve, ~p^2 points, so it gets p < 128), N in
# -2..6, k and ell in -1..3.
_FLAG_VALUES = {
    "--n-max": st.integers(-1, 6),
    "--k": st.integers(-1, 3),
    "--ell": st.integers(-1, 3),
    "--big-n": st.integers(-2, 6),
    "--t-policy": st.sampled_from(["largest", "prime", "median"]),
    "--seed": st.integers(0, 3),
    "--samples": st.integers(-1, 3),
    "--delta-budget": st.integers(-1, 300),
    "--d-max": st.integers(-1, 4),
    "--s-max": st.integers(-1, 3),
    "--c": st.sampled_from(["1", "0", "1,0", "0,1", "1,2,3", "x", ""]),
    "--checks": st.sampled_from(["degrees", "xfg,squares", "squarefree", "", "nope"]),
    "--experiments": st.sampled_from(["u", "v", "lemma5", "collisions",
                                      "u,v,lemma5,collisions", "w", ""]),
}
_INT = st.integers(-2, 12)
_ANY = st.one_of(_INT, st.none(), st.text(max_size=2), st.lists(_INT, max_size=3))


_SMALL = st.one_of(_INT, _INT, _INT, _ANY)  # mostly well-typed
_VECTOR = st.one_of(st.lists(_INT, max_size=3), _ANY)
_RECORD = st.one_of(
    st.fixed_dictionaries({
        "experiment": st.sampled_from(["u", "v", "lemma5", "collisions", "w"]),
        "inputs": st.fixed_dictionaries(
            {"p": st.one_of(st.integers(-1, 199), _ANY), "a": _SMALL, "b": _SMALL},
            optional={"N": _SMALL, "t": _SMALL, "k": _SMALL, "c": _VECTOR,
                      "d": _VECTOR}),
        "lhs": st.one_of(st.floats(), st.integers(), st.text(max_size=2)),
        "exact": st.booleans(),
    }),
    st.dictionaries(st.sampled_from(["experiment", "inputs", "lhs", "exact"]), _ANY),
)


@st.composite
def cli_argv(draw):
    """A subcommand with a curve choice and a random subset of the other
    flags, plus the report file contents for `report`."""
    command = draw(st.sampled_from(["verify", "sums", "extract", "find-curve",
                                    "report"]))
    top = 127 if command == "verify" else 199
    p = st.one_of(st.sampled_from([q for q in primes_upto(top) if q > 3]),
                  st.integers(-1, top))
    argv = [command]
    curve = draw(st.sampled_from(["none", "p a b", "p", "range"]))
    if curve.startswith("p"):
        argv += ["--p", str(draw(p))]
    if curve == "p a b":
        argv += ["--a", str(draw(_INT)), "--b", str(draw(_INT))]
    if curve == "range":
        argv += ["--p-min", str(draw(p)), "--p-max", str(draw(p))]
    for flag in draw(st.sets(st.sampled_from(sorted(_FLAG_VALUES)), max_size=5)):
        argv += [flag, str(draw(_FLAG_VALUES[flag]))]
    if command == "verify" and "--n-max" not in argv:
        argv += ["--n-max", "3"]
    report = draw(st.one_of(st.lists(_RECORD, min_size=1, max_size=3), _RECORD,
                            _ANY, st.just({"records": "x"})))
    return argv, report


class TestMainProperty:
    @settings(max_examples=60, deadline=None)
    @given(cli_argv())
    def test_every_argv_exits_with_a_documented_code(self, drawn):
        argv, report = drawn
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "report.json"), "w") as fh:
                json.dump(report, fh)
            argv = argv + ["--jobs", "1", "--out", os.path.join(tmp, "out"),
                           "--in", os.path.join(tmp, "report.json")]
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag
                rc = exc.code
        assert rc in (0, 1, 2, 3)


@st.composite
def sums_argv(draw):
    """A sums run on a small --p/--a/--b curve, with any experiment list,
    small ranges, either t-policy and an optional --c."""
    C = draw(small_curves())
    experiments = draw(st.lists(st.sampled_from(["u", "v", "lemma5", "collisions"]),
                                min_size=1, max_size=4, unique=True))
    if draw(st.sampled_from([False, False, False, True])):
        experiments.append(draw(st.sampled_from(experiments)))  # refused
    argv = ["sums", "--p", str(C.p), "--a", str(C.a), "--b", str(C.b),
            "--experiments", ",".join(experiments),
            "--big-n", str(draw(st.integers(2, 6))),
            "--d-max", str(draw(st.integers(1, 3))),
            "--s-max", str(draw(st.integers(1, 3))),
            "--n-max", str(draw(st.integers(2, 4))),
            "--t-policy", draw(st.sampled_from(["largest", "prime"]))]
    # entries in [-2p, 2p], half of them the multiples of p that a
    # kernel reads as zero
    entry = st.sampled_from(range(-2 * C.p, 2 * C.p + 1, C.p)) \
        | st.integers(-2 * C.p, 2 * C.p)
    c = draw(st.none() | st.lists(entry, min_size=1, max_size=3))
    if c is not None:  # --c=...: argparse reads a bare -5 as a flag
        argv.append("--c=" + ",".join(map(str, c)))
    return argv


class TestSumsFailFast:
    @settings(max_examples=150, deadline=None)
    @given(sums_argv())
    def test_exit_2_runs_no_cell_and_writes_no_file(self, argv):
        # cli refuses before the first cell whatever a kernel would refuse
        # in one: a run that exits 2 ran no cell and wrote no file
        calls = []
        real = cli.run_sum_cell

        def recording(cell):
            calls.append(cell)
            return real(cell)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "run_sum_cell", recording):
            rc = cli.main(argv + ["--jobs", "1", "--out", os.path.join(tmp, "s")])
            written = os.listdir(tmp)
        assert rc in (0, 2, 3)
        if rc == 2:
            assert calls == [] and written == []
        # no v or lemma5 cell runs over H = {O}: a t-policy giving t = 1
        # (no prime factor of #E above N) exits 2
        assert all(cell["t"] > 1 for cell in calls if "t" in cell)


class TestBudgetExit:
    def test_sums_budget_exceeded_is_exit_3(self, tmp_path):
        # #E = 1,301,279 is over the point-enumeration budget of sum_U
        rc = cli.main(["sums", "--p", "1300021", "--a", "1", "--b", "1",
                       "--big-n", "2", "--experiments", "u",
                       "--out", str(tmp_path / "b")])
        assert rc == 3
        data = json.loads((tmp_path / "b.json").read_text())
        assert data["incomplete"] is True

    def test_partial_run_keeps_the_completed_records(self, tmp_path, capsys,
                                                     monkeypatch):
        # one of the 20 collisions cells up to N = 6 is over its budget
        real = cli.count_product_collisions
        over = {"experiment": "collisions", "N": 5, "k": 2, "c": [1, 1]}

        def one_over_budget(N, k, c):
            if (N, k, list(c)) == (over["N"], over["k"], over["c"]):
                raise ResourceBudgetError("collision enumeration exceeds budget")
            return real(N, k, c)

        json_writes = []

        def counting_open(path, mode="r", *args, **kwargs):
            if str(path).endswith(".json") and "w" in mode:
                json_writes.append(str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "count_product_collisions", one_over_budget)
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        out = str(tmp_path / "part")
        rc = cli.main(["sums", "--experiments", "collisions", "--n-max", "6",
                       "--jobs", "1", "--out", out])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == (f"skipped {over}: collision enumeration exceeds budget\n")
        assert json_writes == [out + ".json"]

        data = json.loads((tmp_path / "part.json").read_text())
        assert list(data) == ["incomplete", "skipped", "records"]
        assert data["incomplete"] is True
        assert data["skipped"] == [{"budget_error": "collision enumeration "
                                    "exceeds budget", "cell": over}]
        records = data["records"]
        assert len(records) == 19
        assert all(dict(r["inputs"], experiment="collisions") != over
                   for r in records)
        with open(out + ".csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[:4] == ["schema", "experiment", "inputs", "lhs"]
        assert [(json.loads(row[2]), int(row[3])) for row in rows] == \
            [(r["inputs"], r["lhs"]) for r in records]

        assert cli.main(["report", "--in", out + ".json"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestLemmaSuiteLibrary:
    def test_all_green_on_default_curves(self, tmp_path, capsys):
        # every check on y^2 = x^3 + x + 1 over F_7 and over F_11
        for p in ("7", "11"):
            out = tmp_path / f"verify{p}.json"
            rc = cli.main(["verify", "--p", p, "--a", "1", "--b", "1",
                           "--n-max", "5", "--out", str(out)])
            assert rc == 0
            assert "verify: 37/37 checks passed\n" == capsys.readouterr().out
            records = json.loads(out.read_text())["records"]
            assert records and all(r["pass"] is True for r in records)


class TestParallelDeterminism:
    def test_worker_pool_matches_serial(self, tmp_path):
        argv = ["sums", "--p", "7", "--a", "1", "--b", "1", "--big-n", "4",
                "--experiments", "u,v"]
        assert cli.main(argv + ["--jobs", "1", "--out", str(tmp_path / "s1")]) == 0
        assert cli.main(argv + ["--jobs", "2", "--out", str(tmp_path / "s2")]) == 0
        a = json.loads((tmp_path / "s1.json").read_text())
        b = json.loads((tmp_path / "s2.json").read_text())
        strip = lambda recs: [
            {k: v for k, v in r.items() if k != "wall_ms"} for r in recs
        ]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("jobs,cpus,big_n,workers", [
        (100_000, 4, 3, 2),  # 2 cells
        (3, 8, 8, 3),
        (8, 2, 8, 2),  # 7 cells, 2 CPUs
        (100_000, 1, 8, None),
        (4, None, 8, None),  # the CPU count is unknown
        (5, 4, 2, None),  # 1 cell
    ])
    def test_pool_no_larger_than_its_cells_or_cpus(self, tmp_path, monkeypatch,
                                                   jobs, cpus, big_n, workers):
        # a fork-started pool would fork all its workers at the first submit
        import concurrent.futures

        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        argv = ["sums", "--p", "7", "--a", "1", "--b", "1", "--experiments", "u",
                "--big-n", str(big_n)]
        assert cli.main(argv + ["--jobs", "1", "--out", str(tmp_path / "s1")]) == 0
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(argv + ["--jobs", str(jobs),
                                "--out", str(tmp_path / "s2")]) == 0
        assert made == ([] if workers is None else [workers])
        a, b = (json.loads((tmp_path / f"{s}.json").read_text()) for s in ("s1", "s2"))
        assert [dict(r, wall_ms=0) for r in a] == [dict(r, wall_ms=0) for r in b]


class TestTrend:
    def test_small_trend_rows(self):
        rows = deviation_trend([1009, 2003], N=6, ells=(1,), samples=10,
                                   seed=0)
        assert len(rows) == 2
        assert all(0 <= r["mean_dev_ell1"] <= 1 for r in rows)
        assert rows[0]["p"] == 1009 and rows[1]["p"] == 2003


def test_bench_tracer_wraps_every_traced_name():
    # The benchmark's tracer wraps library functions by name; a renamed or
    # dropped one shows up as a problem in what install() returns.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "bench"), os.path.join(root, "src")]))
    out = subprocess.run(
        [sys.executable, "-c", "import spans; print(spans.Tracer().install())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# What `import ecbits.cli` loads, as a line of Python; the CI job runs the
# same line against the installed package.
IMPORT_CHECK = (
    "import sys; before = set(sys.modules); import ecbits.cli; "
    "loaded = set(sys.modules) - before; "
    "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', "
    "'dataclasses') if m in loaded))"
)


def test_import_loads_no_pool_or_dataclasses():
    # only a --jobs > 1 sums run starts a pool, and it imports one then
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
