import numpy as np
import pytest

from bggm import io
from bggm.errors import InputError, ValidationError
from bggm.inference import NET_CLASS1, NET_DIFFERENTIAL, call_network, summarize
from bggm.model import CLASS1, CLASS2, UNKNOWN, Dataset, default_hyperparameters
from bggm.sampler import ChainConfig, run_chain
from bggm.synthetic import generate_model, sample_data
from oracles import read_network_dot


@pytest.fixture(scope="module")
def fitted():
    model = generate_model(4, 2, 2, (0.5, 0.7), seed=50)
    d = sample_data(model, 25, 25, seed=51)
    labels = d.labels.copy()
    labels[-6:] = UNKNOWN
    d = Dataset(d.y, labels, d.names)
    h = default_hyperparameters(d.p)
    cfg = ChainConfig(iterations=300, burn_in=100, thin=2, seed=52)
    samples = run_chain(d, h, cfg)
    return d, samples, summarize(samples)


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(60)
        y = rng.standard_normal((8, 3)) * 7.3
        labels = np.array([1, 1, 1, 2, 2, 2, 0, 0])
        d = Dataset(y, labels, ("AKT", "PTEN", "MAPK"))
        path = tmp_path / "d.csv"
        io.write_dataset_csv(path, d, class_names=("breast", "ovary"),
                             header=io.format_header(1, "abc"))
        back, class_names = io.read_dataset_csv(path)
        assert class_names == ("breast", "ovary")
        assert back.names == d.names
        assert np.array_equal(back.labels, d.labels)
        assert np.allclose(back.y, d.y, atol=1e-12, rtol=0)

    def test_header_line_present(self, tmp_path):
        d = Dataset(np.zeros((2, 2)), np.array([1, 2]), ("a", "b"))
        path = tmp_path / "d.csv"
        io.write_dataset_csv(path, d, class_names=("x", "y"),
                             header=io.format_header(7, "beef"))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# bggm ") and "seed=7" in first

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,2.0,x\n1.0,x\n")
        with pytest.raises(InputError, match="row 3"):
            io.read_dataset_csv(path)

    def test_non_numeric_cell_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,oops,x\n2.0,3.0,y\n")
        with pytest.raises(InputError, match="column 'b'"):
            io.read_dataset_csv(path)

    def test_unexpected_class_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,2.0,x\n2.0,3.0,z\n")
        with pytest.raises(ValidationError):
            io.read_dataset_csv(path, class_names=("x", "y"))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(InputError, match="label"):
            io.read_dataset_csv(path)


class TestPriorNetworkFile:
    def test_parse_with_scope_and_comments(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text(
            "# pathway elicitation\n"
            "AKT\tPTEN\timportant\n"
            "AKT MAPK unimportant class2\n"
            "\n")
        net = io.read_prior_network(path)
        assert net.edges == (
            ("AKT", "PTEN", "important", "both"),
            ("AKT", "MAPK", "unimportant", "class2"),
        )

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("AKT PTEN\n")
        with pytest.raises(InputError):
            io.read_prior_network(path)


class TestNetworkExports:
    def test_tsv_contains_called_edges(self, fitted, tmp_path):
        d, samples, summary = fitted
        call = call_network(summary, NET_CLASS1, 0.2)
        path = tmp_path / "net.tsv"
        io.write_network_tsv(path, call, d.names, io.format_header(1, "aa"))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# bggm ")
        assert lines[2].split("\t")[0] == "protein_i"
        assert len(lines) == 3 + len(call.edges)

    def test_dot_roundtrip(self, fitted, tmp_path):
        d, samples, summary = fitted
        for which in (NET_CLASS1, NET_DIFFERENTIAL):
            call = call_network(summary, which, 0.2)
            path = tmp_path / f"{which}.dot"
            io.write_network_dot(path, call, d.names, io.format_header(1, "aa"))
            parsed = read_network_dot(path)
            assert len(parsed) == len(call.edges)
            for edge, (name_a, name_b, color, pw, ppi) in zip(call.edges, parsed):
                assert name_a == d.names[edge.i]
                assert name_b == d.names[edge.j]
                assert ppi == pytest.approx(edge.ppi, abs=1e-9)
                assert pw == pytest.approx(io.penwidth(edge.weight), abs=2e-3)
                if which == NET_DIFFERENTIAL:
                    want = {"class1": "orange", "class2": "blue"}[edge.carrier]
                else:
                    want = {"positive": "green", "negative": "red"}[edge.sign]
                assert color == want

    def test_penwidth_bounds(self):
        assert io.penwidth(0.0) == io.DOT_MIN_PENWIDTH
        assert io.penwidth(1.0) == io.DOT_MAX_PENWIDTH


class TestResultsBundle:
    def test_save_load_roundtrip(self, fitted, tmp_path):
        d, samples, summary = fitted
        path = tmp_path / "results.npz"
        io.save_results(path, samples, summary, meta={
            "class_names": ["x", "y"], "label_column": "label",
            "names": list(d.names), "alphas": [0.1], "config_hash": "cafe",
        })
        summary2, meta = io.load_results(path)
        assert meta["class_names"] == ["x", "y"]
        assert ChainConfig(**meta["chain_config"]) == samples.config
        with np.load(path) as bundle:
            assert np.array_equal(bundle["draws_a"], samples.a)
            assert np.array_equal(bundle["draws_r"], samples.r)
            assert np.array_equal(bundle["draws_z"], samples.z_u)
        assert np.allclose(summary2.ppi_class1, summary.ppi_class1)
        assert np.allclose(summary2.ppi_common, summary.ppi_common)
        assert np.allclose(summary2.class1_probability, summary.class1_probability)

    def test_chain_counts_roundtrip(self, fitted, tmp_path):
        d, samples, summary = fitted
        path = tmp_path / "results.npz"
        io.save_results(path, samples, summary, meta={"names": list(d.names)})
        _, meta = io.load_results(path)
        assert meta["counts"] == samples.counts
        assert meta["counts"]["w_refactor_forced"] == 0
        assert 0.0 < meta["counts"]["w_drift_max"] < 1e-10

    def test_version_check(self, fitted, tmp_path):
        import json
        d, samples, summary = fitted
        path = tmp_path / "results.npz"
        io.save_results(path, samples, summary, meta={"config_hash": "00"})
        # tamper with the version field
        with np.load(path) as npz:
            payload = {k: npz[k] for k in npz.files}
        meta = json.loads(str(payload["meta"]))
        meta["format_version"] = 999
        payload["meta"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(InputError):
            io.load_results(tmp_path / "bad.npz")


class TestSummaries:
    def test_chain_summary_and_predictions(self, fitted, tmp_path):
        d, samples, summary = fitted
        header = io.format_header(samples.config.seed, "aa")
        io.write_chain_summary_tsv(tmp_path / "cs.tsv", samples, header)
        text = (tmp_path / "cs.tsv").read_text()
        assert "acceptance_edge" in text and "draws\t100" in text

        io.write_predictions_tsv(tmp_path / "p.tsv", summary, ("x", "y"), header)
        lines = (tmp_path / "p.tsv").read_text().splitlines()
        assert len(lines) == 2 + len(d.unknown_rows)

    def test_empty_predictions_file(self, fitted, tmp_path):
        d, samples, summary = fitted
        # summary without unknowns
        from dataclasses import replace
        summary0 = replace(summary,
                           class1_probability=np.zeros(0),
                           unknown_rows=np.zeros(0, dtype=int))
        io.write_predictions_tsv(tmp_path / "p0.tsv", summary0, ("x", "y"),
                                 io.format_header(0, "aa"))
        lines = (tmp_path / "p0.tsv").read_text().splitlines()
        assert len(lines) == 2  # header + column names only
