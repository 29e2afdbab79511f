import json

import pytest

from ecbits import cli
from ecbits.charsum import sum_V
from ecbits.curve import (
    Curve,
    ExhaustionError,
    coprime_part,
    factorize,
    find_curve,
    subgroup_order_for_policy,
)
from ecbits.divpoly import DivisionPolynomials, ReducedPoly
from ecbits.extract import deviation_trend
from ecbits.field import PreconditionError, field
from ecbits.poly import Poly


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
        assert "checks passed" in capsys.readouterr().out

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
                return ReducedPoly(
                    value.w + Poly.const(self.curve.field, 1),
                    value.has_y,
                    self.curve_poly,
                )
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

    def test_malformed_zero_c_rejected_before_compute(self):
        rc = cli.main(["sums", "--p", "7", "--a", "1", "--b", "1",
                       "--experiments", "v", "--c", "0,0"])
        assert rc == 2

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

    def test_collisions_cells(self, tmp_path):
        out = tmp_path / "col"
        rc = cli.main(["sums", "--n-max", "5", "--experiments", "collisions",
                       "--out", str(out)])
        assert rc == 0
        records = json.loads((tmp_path / "col.json").read_text())
        for rec in records:
            assert rec["exact"] is True
            assert rec["ratio"] <= 1.0


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

    def test_missing_in_is_config_error(self):
        assert cli.main(["report"]) == 2


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
    ])
    def test_one_line_exit_2(self, tmp_path, capsys, argv, message):
        assert cli.main(["verify", "--p", "7", "--a", "1", "--b", "1",
                         "--n-max", "2", "--out", str(tmp_path / "verify.json")]) == 0
        capsys.readouterr()
        # a sums record whose curve lives over F_8
        (tmp_path / "p8.json").write_text(json.dumps([{
            "experiment": "u", "inputs": {"p": 8, "a": 1, "b": 1, "N": 2},
            "lhs": 0.0, "exact": True}]))
        # sums records with a string p and with no N
        for name, inputs in (("pstr", {"p": "7", "a": 1, "b": 1, "N": 2}),
                             ("no_n", {"p": 7, "a": 1, "b": 1})):
            (tmp_path / f"{name}.json").write_text(json.dumps([{
                "experiment": "u", "inputs": inputs, "lhs": 0.0, "exact": True}]))
        rc = cli.main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and message in err


class TestBudgetExit:
    def test_sums_budget_exceeded_is_exit_3(self, tmp_path):
        # p large enough that #E^2 * N blows the sum_U work budget
        rc = cli.main(["sums", "--p", "7919", "--a", "1", "--b", "1",
                       "--big-n", "8", "--experiments", "u",
                       "--out", str(tmp_path / "b")])
        assert rc == 3
        data = json.loads((tmp_path / "b.json").read_text())
        assert data["incomplete"] is True


class TestLemmaSuiteLibrary:
    def test_fault_injected_factory(self, micro_curve):
        class Corrupted(DivisionPolynomials):
            def psi(self, n):
                value = super().psi(n)
                if n == 3:
                    return ReducedPoly(
                        value.w + Poly.const(self.curve.field, 1),
                        value.has_y,
                        self.curve_poly,
                    )
                return value

        records = cli.run_lemma_suite([micro_curve], n_max=3, checks=("xfg",),
                                      divpoly_factory=Corrupted)
        assert any(not r["pass"] for r in records)

    def test_all_green_on_default_curves(self):
        curves = [Curve(field(7), 1, 1), Curve(field(11), 1, 1)]
        records = cli.run_lemma_suite(curves, n_max=5)
        assert records and all(r["pass"] for r in records)


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


class TestTrend:
    def test_small_trend_rows(self):
        rows = deviation_trend([1009, 2003], N=6, ells=(1,), samples=10,
                                   seed=0)
        assert len(rows) == 2
        assert all(0 <= r["mean_dev_ell1"] <= 1 for r in rows)
        assert rows[0]["p"] == 1009 and rows[1]["p"] == 2003
