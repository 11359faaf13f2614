import json

from dfnvem import cli

from _util import import_network_dict


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestSolveCommand:
    def test_single_cartesian_level1(self, tmp_path, capsys):
        rc = run_cli(["solve", "--case", "single", "--family", "cartesian",
                      "--level", "1", "--model", "cc", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema"] == 1
        assert abs(summary["errors"]["err_p"] - 4.099e-2) < 0.05 * 4.099e-2
        assert summary["residual"] < 1e-10
        assert (tmp_path / "single_cartesian_1.vtk").exists()

    def test_four_fracture_dc_writes_line_fields(self, tmp_path):
        rc = run_cli(["solve", "--case", "four-fractures", "--family",
                      "triangular", "--level", "1", "--out", tmp_path])
        assert rc == 0
        assert (tmp_path / "four-fractures_triangular_1_lines.vtk").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["model"] == "dc"
        # Unit source balances the boundary outflow.
        assert abs(summary["flux_balance"]["boundary_outflow"] - 1.0) < 1e-8

    def test_dc_balance_counts_intersection_ends(self, tmp_path):
        # Dirichlet intersection ends carry outflow that the balance
        # must include for a conservative dc solve to read as balanced.
        rc = run_cli(["solve", "--case", "intersection-flow", "--level", "2",
                      "--model", "dc", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["flux_balance"]["relative_imbalance"] < 1e-8

    def test_network_import(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        out = tmp_path / "out"
        rc = run_cli(["solve", "--network", net_path, "--h", "0.2",
                      "--model", "cc", "--out", out])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual"] < 1e-10
        assert summary["flux_balance"]["relative_imbalance"] < 1e-8


class TestMeshAndCoarsen:
    def test_mesh_export(self, tmp_path):
        rc = run_cli(["mesh", "--case", "single", "--family", "cartesian",
                      "--level", "1", "--out", tmp_path])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mesh_stats"]["0"]["n_cells"] == 100
        assert (tmp_path / "fracture_0.mesh.txt").exists()

    def test_coarsen_pipeline(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        out = tmp_path / "out"
        rc = run_cli(["coarsen", "--network", net_path, "--h", "0.22",
                      "--c-depth", "2", "--out", out])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        for fid, stats in summary["coarsen_stats"].items():
            assert stats["coarse_cells"] < stats["fine_cells"]
        assert (out / "partition_0.csv").exists()


class TestConvergenceCommand:
    def test_two_level_csv(self, tmp_path):
        rc = run_cli(["convergence", "--case", "single", "--family",
                      "cartesian", "--levels", "2", "--out", tmp_path])
        assert rc == 0
        csv_path = tmp_path / "single_cartesian.csv"
        assert csv_path.exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["levels"]) == 2
        assert abs(summary["levels"][1]["order_p"] - 1.949) < 0.05

    def test_rerun_bit_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli(["convergence", "--case", "single", "--family",
                          "triangular", "--levels", "2", "--out", out])
            assert rc == 0
        assert (a / "single_triangular.csv").read_bytes() == \
               (b / "single_triangular.csv").read_bytes()
        assert (a / "single_triangular_finest.vtk").read_bytes() == \
               (b / "single_triangular_finest.vtk").read_bytes()


class TestErrors:
    def test_missing_case_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["solve", "--out", tmp_path])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_family(self, tmp_path, capsys):
        rc = run_cli(["solve", "--case", "single", "--family", "nope",
                      "--out", tmp_path])
        assert rc == 2

    def test_geometry_error_exit_code(self, tmp_path, capsys):
        data = {"fractures": [
            {"id": 0, "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]},
            {"id": 1, "vertices": [[0.5, 0.5, 0], [1.5, 0.5, 0],
                                   [1.5, 1.5, 0], [0.5, 1.5, 0]]},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc = run_cli(["solve", "--network", path, "--out", tmp_path / "o"])
        assert rc == 3

    def test_mesh_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(import_network_dict()))
        rc = run_cli(["mesh", "--network", path, "--h", "-1",
                      "--out", tmp_path / "o"])
        assert rc == 4


class TestThreads:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("DFN_VEM_THREADS", "3")
        args = cli._parser().parse_args(["solve", "--case", "single"])
        assert args.threads == 3

    def test_threaded_matches_serial(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(import_network_dict()))
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"out{threads}"
            rc = run_cli(["solve", "--network", net_path, "--h", "0.25",
                          "--threads", threads, "--out", out])
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            outs.append(summary["flux_balance"]["boundary_outflow"])
        assert outs[0] == outs[1]
