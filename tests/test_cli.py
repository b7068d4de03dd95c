import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bggm
from bggm.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_startup_does_not_import_scipy_stats():
    # importing scipy.stats more than doubles the start-up time of every
    # command, and no production module needs it
    src = str(Path(bggm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, bggm, bggm.cli; "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--out", out, "--p", 5, "--conserved", 3,
                   "--differential", 2, "--n1", 30, "--n2", 30, "--seed", 4)
    assert code == 0
    return out


class TestSimulate:
    def test_dataset_shape(self, sim_dir):
        lines = (sim_dir / "dataset.csv").read_text().splitlines()
        assert lines[0].startswith("# bggm ")
        header = lines[1].split(",")
        assert header == ["V1", "V2", "V3", "V4", "V5", "label"]
        assert len(lines) == 2 + 60

    def test_truth_counts(self, sim_dir):
        rows = (sim_dir / "truth.tsv").read_text().splitlines()[2:]
        labels = [r.split("\t")[2] for r in rows]
        assert labels.count("conserved") == 3
        assert sum(1 for lab in labels if lab.startswith("differential")) == 2


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run_cli(
        "fit", "--data", sim_dir / "dataset.csv", "--out", out,
        "--iterations", 300, "--burn-in", 100, "--seed", 5,
        "--alpha", "0.1,0.2")
    assert code == 0
    return out


class TestFit:
    def test_outputs_exist(self, fit_dir):
        for name in ("chain_summary.tsv", "results.npz", "predictions.tsv"):
            assert (fit_dir / name).exists(), name
        for alpha in ("0.1", "0.2"):
            for which in ("class1", "class2", "differential", "conserved"):
                assert (fit_dir / f"network_{which}_alpha{alpha}.tsv").exists()
                assert (fit_dir / f"network_{which}_alpha{alpha}.dot").exists()

    def test_all_outputs_have_version_header(self, fit_dir):
        for path in fit_dir.glob("*.tsv"):
            assert path.read_text().splitlines()[0].startswith("# bggm "), path
        for path in fit_dir.glob("*.dot"):
            assert path.read_text().splitlines()[0].startswith("// bggm "), path

    def test_empty_unknowns_gives_empty_predictions(self, fit_dir):
        lines = (fit_dir / "predictions.tsv").read_text().splitlines()
        assert len(lines) == 2

    def test_logs_edge_kernel_telemetry(self, sim_dir, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="bggm")
        code = run_cli("fit", "--data", sim_dir / "dataset.csv", "--out", tmp_path,
                       "--iterations", 60, "--burn-in", 20, "--seed", 6)
        assert code == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("edge kernel:")]
        assert len(lines) == 1
        assert lines[0].startswith("edge kernel: 0 accepted moves refactored in full, "
                                   "max |W C - I| at re-anchor ")

    def test_deterministic_reruns_byte_identical(self, sim_dir, tmp_path_factory):
        out1 = tmp_path_factory.mktemp("fit_a")
        out2 = tmp_path_factory.mktemp("fit_b")
        for out in (out1, out2):
            code = run_cli("fit", "--data", sim_dir / "dataset.csv",
                           "--out", out, "--iterations", 200,
                           "--burn-in", 50, "--seed", 6)
            assert code == 0
        for path1 in sorted(out1.glob("*.tsv")) + sorted(out1.glob("*.dot")):
            path2 = out2 / path1.name
            assert path1.read_bytes() == path2.read_bytes(), path1.name

    def test_networks_rethreshold(self, fit_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("nets")
        code = run_cli("networks", "--results", fit_dir / "results.npz",
                       "--out", out, "--alpha", "0.05,0.2")
        assert code == 0
        assert (out / "network_class1_alpha0.05.tsv").exists()
        # at an alpha fit also used, the files match fit's byte for byte
        refit = sorted(out.glob("network_*_alpha0.2.*"))
        assert len(refit) == 8
        for path in refit:
            assert path.read_bytes() == (fit_dir / path.name).read_bytes(), path.name

    def test_predict_reextracts(self, fit_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("pred")
        code = run_cli("predict", "--results", fit_dir / "results.npz",
                       "--out", out)
        assert code == 0
        assert (out / "predictions.tsv").exists()
        assert ((out / "predictions.tsv").read_bytes()
                == (fit_dir / "predictions.tsv").read_bytes())


class TestFitWithUnknowns:
    def test_predictions_written(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = ["g1,g2,label"]
        for _ in range(10):
            rows.append(f"{rng.normal():-.6f},{rng.normal():.6f},sick")
        for _ in range(10):
            rows.append(f"{rng.normal()+3:.6f},{rng.normal()+3:.6f},well")
        for _ in range(4):
            rows.append(f"{rng.normal():.6f},{rng.normal():.6f},?")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run_cli("fit", "--data", data, "--out", out,
                       "--iterations", 300, "--burn-in", 100, "--seed", 9)
        assert code == 0
        lines = (out / "predictions.tsv").read_text().splitlines()
        assert len(lines) == 2 + 4
        # unknowns sit on the 'sick' side of a well-separated pair
        assert all(line.split("\t")[2] == "sick" for line in lines[2:])


class TestPriorNetworkFlag:
    def test_fit_with_prior_network(self, sim_dir, tmp_path):
        net = tmp_path / "net.tsv"
        net.write_text("V1\tV2\timportant\nV3 V4 unimportant class1\n")
        out = tmp_path / "out"
        code = run_cli("fit", "--data", sim_dir / "dataset.csv", "--out", out,
                       "--prior-network", net, "--iterations", 200,
                       "--burn-in", 50, "--seed", 2)
        assert code == 0
        assert (out / "results.npz").exists()

    def test_unknown_protein_exit_2(self, sim_dir, tmp_path):
        net = tmp_path / "net.tsv"
        net.write_text("V1\tNOPE\timportant\n")
        code = run_cli("fit", "--data", sim_dir / "dataset.csv",
                       "--out", tmp_path / "o", "--prior-network", net)
        assert code == 2


class TestBenchmarkCommand:
    def test_single_replicate_smoke(self, sim_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        code = run_cli("benchmark", "--data", sim_dir / "dataset.csv",
                       "--out", out, "--replicates", 1,
                       "--classifiers", "knn,lda,dlda,dqda,nbc",
                       "--seed", 3)
        assert code == 0
        table = (out / "benchmark.tsv").read_text().splitlines()
        assert table[3].split("\t") == ["stat", "KNN", "LDA", "DLDA", "DQDA", "NBC"]
        assert table[4].startswith("mean\t")
        raw = (out / "benchmark_replicates.tsv").read_text().splitlines()
        assert len(raw) == 2 + 5  # one replicate, five classifiers

    def test_column_order_with_bgbc(self, sim_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench2")
        code = run_cli("benchmark", "--data", sim_dir / "dataset.csv",
                       "--out", out, "--replicates", 1,
                       "--iterations", 150, "--burn-in", 50,
                       "--seed", 3)
        assert code == 0
        table = (out / "benchmark.tsv").read_text().splitlines()
        assert table[3].split("\t") == [
            "stat", "KNN", "LDA", "DLDA", "DQDA", "NBC", "BGBC"]
        assert "SVM" in table[1]  # absence noted in the header comment

    def test_reports_resampling_and_violations(self, sim_dir, tmp_path_factory,
                                                caplog):
        caplog.set_level(logging.INFO, logger="bggm")
        out = tmp_path_factory.mktemp("bench3")
        code = run_cli("benchmark", "--data", sim_dir / "dataset.csv",
                       "--out", out, "--replicates", 1, "--classifiers", "lda,bgbc",
                       "--iterations", 60, "--burn-in", 20, "--validate-every", 1,
                       "--seed", 3)
        assert code == 0
        table = (out / "benchmark.tsv").read_text().splitlines()
        assert table[2] == "# resampled_splits=0 invariant_violations=0"
        assert table[3].split("\t") == ["stat", "LDA", "BGBC"]
        assert "0 degenerate splits resampled, 0 invariant violations" in caplog.text


class TestConfigFileAndErrors:
    def test_config_file_precedence(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 250\nburn-in = 50\nseed = 11\n")
        out = tmp_path / "out"
        code = run_cli("fit", "--data", sim_dir / "dataset.csv", "--out", out,
                       "--config", cfg, "--seed", 12)  # flag beats file
        assert code == 0
        text = (out / "chain_summary.tsv").read_text()
        assert "iterations\t250" in text  # from file
        assert "seed\t12" in text         # from flag

    def test_unknown_config_key(self, sim_dir, tmp_path, caplog):
        # an unknown key, and known keys whose values do not parse
        for name, text in (("bogus", "bogus = 1\n"),
                           ("iterations", "iterations = 1e3\n"),
                           ("validate_every", "validate_every = yes\n")):
            caplog.clear()
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            code = run_cli("fit", "--data", sim_dir / "dataset.csv",
                           "--out", tmp_path / "o", "--config", cfg)
            assert code == 2
            assert str(cfg) in caplog.text and name in caplog.text

    def test_constant_column_exit_2(self, tmp_path, caplog):
        rng = np.random.default_rng(3)
        rows = ["g1,g2,g3,label"]
        for k in range(16):
            g1 = 3.0 if k < 8 else rng.normal()  # constant over class 'a'
            rows.append(f"{g1},{rng.normal():.6f},{rng.normal():.6f},{'ab'[k // 8]}")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        code = run_cli("fit", "--data", data, "--out", tmp_path / "o",
                       "--iterations", 20, "--burn-in", 5)
        assert code == 2
        assert "'g1'" in caplog.text and "class 1" in caplog.text

    def test_missing_file_exit_2(self, tmp_path):
        code = run_cli("fit", "--data", tmp_path / "nope.csv",
                       "--out", tmp_path / "o")
        assert code == 2

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1.0,zap,x\n2.0,1.0,y\n")
        code = run_cli("fit", "--data", bad, "--out", tmp_path / "o")
        assert code == 2

    def test_bad_alpha_exit_2(self, sim_dir, tmp_path):
        code = run_cli("fit", "--data", sim_dir / "dataset.csv",
                       "--out", tmp_path / "o", "--alpha", "1.5")
        assert code == 2

    def test_numerical_abort_exit_3(self, sim_dir, tmp_path, monkeypatch):
        import bggm.cli
        from bggm.errors import NumericalAbort

        def exploding_chain(*args, **kwargs):
            raise NumericalAbort("non-finite state", diagnostics={"sweep": 3})

        monkeypatch.setattr(bggm.cli, "run_chain", exploding_chain)
        code = run_cli("fit", "--data", sim_dir / "dataset.csv",
                       "--out", tmp_path / "o")
        assert code == 3
