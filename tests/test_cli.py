import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linkpred
from conftest import SHUFFLED_RING_EDGES
from linkpred import datasets, skipgram
from linkpred.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from linkpred.graph import Graph, split_edges
from linkpred.skipgram import TrainConfig, train
from linkpred.walks import WalkParams, generate_corpus


def _write(path, pairs):
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")
    return str(path)


def test_wheel_graph_runs(tmp_path):
    # The hub is adjacent to every other node in most training graphs.
    n = 12
    wheel = [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)]
    edges = _write(tmp_path / "wheel.txt", wheel)
    code = main(["auc", edges, "--method", "cn", "--trials", "3",
                 "--out", str(tmp_path / "wheel")])
    assert code == EXIT_OK
    assert (tmp_path / "wheel_trials.csv").read_text().count("\n") == 4


def test_edgeless_training_graph_is_a_data_error(tmp_path, capsys):
    # ceil(0.9 * 2) = 2: both edges are withheld, and the training graph keeps
    # all four nodes with no edge between them.
    pairs = [(0, 1), (2, 3)]
    g = Graph(pairs)
    partition = split_edges(g, 0.9, 0)
    g_train = Graph(partition.train, nodes=g.nodes)
    assert (g_train.num_nodes, g_train.num_edges, len(partition.test)) == (4, 0, 2)
    edges = _write(tmp_path / "two.txt", pairs)
    code = main(["auc", edges, "--method", "cn", "--trials", "1",
                 "--test-fraction", "0.9", "--out", str(tmp_path / "two")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_seed_runs(tmp_path):
    # A partition seed and its negative give the same split; the comparison
    # draws are seeded from the signed seed, so the records are the negative
    # seed's own, and the same on every run.
    edges = _chesapeake(tmp_path)
    for run in ("a", "b"):
        code = main(["auc", edges, "--method", "cn", "--trials", "2", "--seed", "-3",
                     "--out", str(tmp_path / run)])
        assert code == EXIT_OK
    rows = (tmp_path / "a_trials.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["-3", "cn"], ["-2", "cn"]]
    assert (tmp_path / "a_trials.csv").read_bytes() == (tmp_path / "b_trials.csv").read_bytes()


def test_single_edge_is_a_data_error(tmp_path, capsys):
    edges = _write(tmp_path / "one.txt", [(0, 1)])
    code = main(["auc", edges, "--method", "cn", "--trials", "2",
                 "--out", str(tmp_path / "one")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: need at least two edges to split\n"


def test_empty_training_graph_is_a_data_error(tmp_path, capsys):
    # ceil(0.6 * 2) = 2: both edges are withheld, nothing is left to train on.
    edges = _write(tmp_path / "two.txt", [(0, 1), (2, 3)])
    code = main(["auc", edges, "--method", "cn", "--trials", "2",
                 "--test-fraction", "0.6", "--out", str(tmp_path / "two")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: empty training graph\n"


def test_test_fraction_out_of_range_is_a_usage_error(tmp_path, capsys):
    edges = _write(tmp_path / "square.txt", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    code = main(["auc", edges, "--method", "cn", "--test-fraction", "1.5",
                 "--out", str(tmp_path / "square")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: test_fraction must be in (0, 1), got 1.5\n"


def test_unknown_method_is_a_usage_error(tmp_path, capsys):
    edges = _write(tmp_path / "square.txt", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    code = main(["auc", edges, "--method", "nope", "--out", str(tmp_path / "square")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "linkpred auc: error: argument --method: invalid choice: 'nope'" in err


EMBED_FLAGS = ["--d", "16", "--r", "2", "--l", "10", "--k", "3", "--epochs", "2"]


def _chesapeake(tmp_path):
    path = tmp_path / "chesapeake.txt"
    datasets.write_edge_list(datasets.chesapeake_like(), path)
    return str(path)


def test_embed_writes_a_loadable_embedding(tmp_path, capsys):
    out = tmp_path / "emb.txt"
    code = main(["embed", _chesapeake(tmp_path), *EMBED_FLAGS, "--out", str(out)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    epochs = [line.split(":")[0] for line in lines if line.startswith("epoch")]
    assert epochs == ["epoch 1", "epoch 2"]
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "30 16"
    assert len(rows) == 30
    assert all(len(row.split()) == 17 for row in rows)


def test_embed_writes_graph_nodes_with_their_rows(tmp_path, capsys):
    out = tmp_path / "ring.emb"
    edges = _write(tmp_path / "ring.txt", SHUFFLED_RING_EDGES)
    assert main(["embed", edges, *EMBED_FLAGS, "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"wrote 6 x 16 embedding to {out}\n")
    graph = Graph(SHUFFLED_RING_EDGES)
    corpus = generate_corpus(graph, WalkParams(length=10, walks_per_node=2), seed=5)
    model = train(corpus, TrainConfig(dim=16, window=3, epochs=2, seed=5))
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "6 16"
    assert [int(row.split()[0]) for row in rows] == graph.nodes.tolist() == [40, 7, 23, 2, 91, 15]
    vectors = np.array([[float(x) for x in row.split()[1:]] for row in rows])
    assert np.array_equal(vectors, model.input_vectors)


def test_embed_negative_seed_embeds_as_its_absolute_value(tmp_path):
    edges = _chesapeake(tmp_path)
    for seed in ("-3", "3"):
        out = str(tmp_path / f"seed{seed}.emb")
        assert main(["embed", edges, *EMBED_FLAGS, "--seed", seed, "--out", out]) == EXIT_OK
    assert (tmp_path / "seed-3.emb").read_bytes() == (tmp_path / "seed3.emb").read_bytes()


def test_diverging_embedding_is_an_error_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(skipgram, "LR_INITIAL", 1e300)
    out = tmp_path / "nan.emb"
    assert main(["embed", _chesapeake(tmp_path), *EMBED_FLAGS, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: skip-gram diverged: non-finite vectors")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--operator", "average"], ["--lambda", "5"],
                                  ["--clf-lr", "9"], ["--clf-epochs", "3"]])
def test_embed_rejects_classifier_flags(tmp_path, capsys, flag):
    out = tmp_path / "emb.txt"
    code = main(["embed", _chesapeake(tmp_path), *EMBED_FLAGS, *flag, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"linkpred: error: unrecognized arguments: {' '.join(flag)}\n")
    assert not out.exists()


def test_infinite_p_q_is_a_usage_error(tmp_path, capsys):
    code = main(["auc", _chesapeake(tmp_path), "--method", "embed", "--p", "inf",
                 "--q", "inf", "--d", "8", "--r", "1", "--l", "10", "--k", "2",
                 "--epochs", "1", "--trials", "2", "--out", str(tmp_path / "a")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: p must be positive and finite with a finite reciprocal, got inf\n")


def test_meaningless_classifier_setting_is_a_usage_error(tmp_path, capsys):
    code = main(["auc", _chesapeake(tmp_path), "--method", "embed", "--lambda", "nan",
                 *EMBED_FLAGS, "--out", str(tmp_path / "a")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: reg_lambda must be finite and > 0, got nan\n"
    assert not (tmp_path / "a_trials.csv").exists()


def test_embed_of_an_empty_graph_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    code = main(["embed", str(path), "--out", str(tmp_path / "e.emb")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: no edges to embed\n"


def test_too_few_non_edges_for_the_classifier_is_a_data_error(tmp_path, capsys):
    # 39 edges on 10 nodes: a training graph of 35 edges leaves 10 non-edges.
    edges = _write(tmp_path / "dense.txt",
                   [(u, v) for u in range(10) for v in range(u + 1, 10) if (u + v) % 7])
    code = main(["auc", edges, "--method", "embed", *EMBED_FLAGS, "--trials", "2",
                 "--out", str(tmp_path / "d")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: graph too dense: 10 distinct non-edges available, need 35\n")


def test_embed_auc_csv_is_deterministic(tmp_path):
    edges = _chesapeake(tmp_path)
    for run in ("a", "b"):
        code = main(["auc", edges, "--method", "embed", "--trials", "2", "--seed", "4",
                     *EMBED_FLAGS, "--out", str(tmp_path / run)])
        assert code == EXIT_OK
    first = (tmp_path / "a_trials.csv").read_bytes()
    assert first.count(b"\n") == 3
    assert first == (tmp_path / "b_trials.csv").read_bytes()


def test_sweep_prints_paired_differences(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "method", "--values", "cn,aa",
                 "--trials", "3", "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "trial_seed,level,auc,wins,ties,losses"
    assert len(rows) == 1 + 6
    paired = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("paired ")]
    assert len(paired) == 1
    assert paired[0].startswith("paired level=aa vs=cn mean=")
    assert " stderr=" in paired[0]


def test_sweep_single_trial_prints_each_record(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "method", "--values", "cn,aa",
                 "--trials", "1", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    expected = [f"trial_seed=7 level={level} auc={auc}"
                for _, level, auc, *_ in (row.split(",") for row in rows)]
    assert capsys.readouterr().out.splitlines() == expected
    assert [line.split()[1] for line in expected] == ["level=cn", "level=aa"]


def test_sweep_summary_needs_two_trials(tmp_path, capsys):
    out, summary = tmp_path / "s1.csv", tmp_path / "s1_sum.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "method", "--values", "cn,aa",
                 "--trials", "1", "--out", str(out), "--summary-out", str(summary)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: --summary-out needs --trials >= 2\n"
    assert not out.exists() and not summary.exists()


TINY_EMBED = ["--d", "4", "--r", "1", "--l", "5", "--k", "2", "--epochs", "1"]


def test_method_sweep_levels_match_auc_runs(tmp_path):
    edges, run = _chesapeake(tmp_path), ["--trials", "1", "--seed", "5", "--n", "300"]
    out = tmp_path / "sweep.csv"
    code = main(["sweep", edges, "--param", "method", "--values", "cn,rwr,embed",
                 *TINY_EMBED, *run, "--out", str(out)])
    assert code == EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert [row.split(",")[1] for row in rows] == ["cn", "rwr_c=0.9", "embed"]
    for method, row in zip(("cn", "rwr", "embed"), rows):
        assert main(["auc", edges, "--method", method, *TINY_EMBED, *run,
                     "--out", str(tmp_path / method)]) == EXIT_OK
        assert (tmp_path / f"{method}_trials.csv").read_text().splitlines() == [header, row]


@pytest.mark.parametrize("flags, err", [
    (["--param", "d", "--method", "rwr", "--values", "4,8"],
     "error: unsupported sweep: param=d method=rwr\n"),
    (["--param", "method", "--values", "cn,bogus"],
     "error: unknown method 'bogus'; choose from "
     "cn, hub_prom, hub_depr, lhn1, aa, lhn1_var, rwr, embed\n"),
    (["--param", "c", "--values", "0.5,high"], "error: --values: 'high' is not a valid c\n"),
    (["--param", "d", "--method", "embed", "--values", "8,1.5"],
     "error: --values: '1.5' is not a valid d\n"),
], ids=["d_with_rwr", "unknown_method", "c_not_a_number", "d_not_an_int"])
def test_sweep_rejects_bad_values_before_reading(tmp_path, capsys, flags, err):
    # The edge list does not exist: the values are checked before it is read.
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(tmp_path / "missing.txt"), *flags, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["auc", "--method", "rwr", "--c", "1.5", "--out", "a"],
     "error: restart complement c must be in [0, 1), got 1.5\n"),
    (["sweep", "--param", "c", "--values", "0.5,1.0", "--out", "s.csv"],
     "error: restart complement c must be in [0, 1), got 1.0\n"),
    (["auc", "--method", "embed", "--lambda", "0", "--out", "a"],
     "error: reg_lambda must be finite and > 0, got 0.0\n"),
    (["embed", "--d", "0", "--out", "e.emb"], "error: dim must be >= 1\n"),
    (["auc", "--method", "cn", "--trials", "0", "--out", "a"],
     "error: need at least one trial\n"),
    (["auc", "--method", "cn", "--test-fraction", "1.5", "--out", "a"],
     "error: test_fraction must be in (0, 1), got 1.5\n"),
    (["auc", "--method", "cn", "--n", "0", "--out", "a"],
     "error: need at least one comparison\n"),
    (["sweep", "--param", "c", "--values", "0.5", "--trials", "0", "--out", "s.csv"],
     "error: need at least one trial\n"),
    (["auc", "--method", "cn", "--seed", "-2", "--trials", "5", "--out", "a"],
     "error: trial seeds -2..2 include both -1 and 1; "
     "a seed and its negative give the same partition\n"),
], ids=["auc_rwr_c", "sweep_rwr_c", "auc_lambda", "embed_d", "auc_trials", "auc_test_fraction",
        "auc_n", "sweep_trials", "auc_seed_clash"])
def test_flags_are_checked_before_reading(tmp_path, capsys, monkeypatch, argv, err):
    # The edge list does not exist: every flag is checked before it is read.
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    assert main([command, "missing.txt", *flags]) == EXIT_USAGE
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_repeated_levels(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "c", "--values",
                 "0.5,0.5", "--trials", "3", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: level tag 'rwr_c=0.5' is repeated; records would merge\n")
    assert not out.exists()


@pytest.mark.parametrize("method, flags", [("rwr", []), ("embed", EMBED_FLAGS)])
def test_sweep_keeps_close_levels_apart(tmp_path, method, flags):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "c", "--method", method,
                 *flags, "--values", "0.1,0.1000001", "--trials", "2", "--out", str(out)])
    assert code == EXIT_OK
    levels = [row.split(",")[1] for row in out.read_text().splitlines()[1:]]
    assert levels == [f"{method}_c=0.1", f"{method}_c=0.1000001"] * 2


def test_rwr_level_tag_keeps_c(tmp_path, capsys):
    code = main(["auc", _chesapeake(tmp_path), "--method", "rwr", "--c", "0.999999999999",
                 "--trials", "1", "--out", str(tmp_path / "near_one")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("trial_seed=0 level=rwr_c=0.999999999999 ")


def _stats(path):
    # The child imports the same linkpred package as this test process.
    src = str(Path(linkpred.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "linkpred", "stats", str(path)],
                          capture_output=True, text=True, env=env)


def test_stats_module_entry_point(tmp_path):
    run = _stats(_chesapeake(tmp_path))
    assert run.returncode == EXIT_OK
    assert run.stdout == "nodes: 30\nedges: 170\naverage degree: 11 (exact 11.333333333333334)\n"


def test_stats_empty_graph(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    run = _stats(path)
    assert run.returncode == EXIT_OK
    assert run.stdout == "nodes: 0\nedges: 0\naverage degree: n/a\n"


def test_stats_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 x\n", encoding="utf-8")
    run = _stats(path)
    assert run.returncode == EXIT_DATA
    assert run.stderr == "error: line 2: non-integer node id in '1 x'\n"


@pytest.mark.parametrize("line", ["1_000 2", "\u0663 1"], ids=["underscore", "arabic_indic"])
def test_stats_non_decimal_id_is_a_parse_error(tmp_path, capsys, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1\n{line}\n", encoding="utf-8")
    assert main(["stats", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: line 2: non-integer node id in {line!r}\n"


def test_stats_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 2\n\xff 3\n")
    run = _stats(path)
    assert run.returncode == EXIT_DATA
    assert run.stderr == "error: line 3: not UTF-8 text\n"


def test_stats_out_of_range_id_is_a_parse_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("0 9223372036854775808\n", encoding="utf-8")
    run = _stats(path)
    assert run.returncode == EXIT_DATA
    assert run.stderr == ("error: line 1: node id 9223372036854775808 is outside "
                          "the signed 64-bit range\n")
