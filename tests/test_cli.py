from linkpred.cli import EXIT_DATA, EXIT_OK, main


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
