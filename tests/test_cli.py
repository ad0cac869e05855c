"""Command-line interface."""

import multiprocessing as mp
import socket

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "Opt-M" and args.atoms == 512


class TestInfo:
    def test_lists_backends_and_machines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for token in ("avx2", "imci", "cuda", "IV+2KNC", "KNL"):
            assert token in out


    def test_lists_every_executor(self, capsys):
        from repro.runtime.spec import EXECUTORS

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if "serial" in ln and "thread" in ln)
        for name in EXECUTORS:
            assert name in line


class TestRun:
    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
    def test_process_run_reports_measured_wire(self, capsys):
        """2 ranks over fork: the comm line carries socket wire bytes and
        the measured fit, as every process run now speaks the wire."""
        argv = ["run", "--atoms", "64", "--steps", "3", "--workers", "2", "--executor", "fork"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        comm = next(ln for ln in out.splitlines() if ln.startswith("comm:"))
        assert "; wire " in comm and "MB out" in comm
        assert "comm fit (measured-ProcessExecutor)" in out

    def test_short_tersoff_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "ns/day" in out and "64 Si atoms" in out

    def test_sw_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "5", "--potential", "sw"]) == 0
        assert "sw" in capsys.readouterr().out

    def test_ref_mode_run(self, capsys):
        assert main(["run", "--atoms", "64", "--steps", "2", "--mode", "Ref"]) == 0
        assert "Ref" in capsys.readouterr().out


class TestFigure:
    def test_table(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "ARM" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fast_forward" in out

    def test_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestSweep:
    def test_sweep_small(self, capsys):
        assert main(["sweep", "--machines", "WM", "KNC", "--single-thread"]) == 0
        out = capsys.readouterr().out
        assert "WM" in out and "KNC" in out and "Opt-M" in out


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out
        assert "FAIL" not in out


class TestProfile:
    def test_profile_renders(self, capsys):
        assert main(["profile", "--isa", "avx512", "--precision", "mixed"]) == 0
        out = capsys.readouterr().out
        assert "cycle profile" in out and "avx512" in out


class TestAddressErrors:
    """Malformed or busy worker addresses are typed errors naming the
    address: exit 2 with a one-line message, never a traceback."""

    def test_worker_bad_port(self, capsys):
        assert main(["worker", "--bind", "127.0.0.1:abc"]) == 2
        assert "127.0.0.1:abc" in capsys.readouterr().err

    def test_worker_port_out_of_range(self, capsys):
        assert main(["worker", "--bind", "127.0.0.1:70000"]) == 2
        assert "127.0.0.1:70000" in capsys.readouterr().err

    def test_worker_busy_unix_path_is_left_alone(self, tmp_path, capsys):
        path = tmp_path / "taken.sock"
        path.write_text("not a socket")
        assert main(["worker", "--unix", str(path), "--once"]) == 2
        assert str(path) in capsys.readouterr().err
        assert path.read_text() == "not a socket"

    def test_worker_busy_tcp_port(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            addr = "127.0.0.1:%d" % busy.getsockname()[1]
            assert main(["worker", "--bind", addr, "--once"]) == 2
        assert addr in capsys.readouterr().err

    def test_run_bad_hosts_address(self, capsys):
        argv = ["run", "--atoms", "64", "--steps", "1", "--hosts", "127.0.0.1:abc,127.0.0.1:1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: ") and "127.0.0.1:abc" in err
