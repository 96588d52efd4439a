import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkpred
from linkpred import datasets
from linkpred.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


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


def test_complete_training_graph_is_a_data_error(tmp_path, capsys):
    # With --seed 1 the one test edge is (3, 4), leaving a triangle to train on.
    edges = _write(tmp_path / "tri.txt", [(0, 1), (0, 2), (1, 2), (3, 4)])
    code = main(["auc", edges, "--method", "cn", "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "tri")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


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
    assert capsys.readouterr().err == "error: reg_lambda must be finite and >= 0, got nan\n"
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
    code = main(["sweep", _chesapeake(tmp_path), "--param", "index", "--values", "cn,aa",
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
    code = main(["sweep", _chesapeake(tmp_path), "--param", "index", "--values", "cn,aa",
                 "--trials", "1", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    expected = [f"trial_seed=7 level={level} auc={auc}"
                for _, level, auc, *_ in (row.split(",") for row in rows)]
    assert capsys.readouterr().out.splitlines() == expected
    assert [line.split()[1] for line in expected] == ["level=cn", "level=aa"]


def test_sweep_summary_needs_two_trials(tmp_path, capsys):
    out, summary = tmp_path / "s1.csv", tmp_path / "s1_sum.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "index", "--values", "cn,aa",
                 "--trials", "1", "--out", str(out), "--summary-out", str(summary)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: --summary-out needs --trials >= 2\n"
    assert not out.exists() and not summary.exists()


def test_sweep_rejects_repeated_levels(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _chesapeake(tmp_path), "--param", "c", "--values",
                 "0.9999991,0.9999992", "--trials", "3", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: level tag 'rwr_c=0.999999' is repeated; records would merge\n")
    assert not out.exists()


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
