"""Command-line interface: subcommands, exit codes, and file outputs."""

import hashlib
import json

import pytest

from shatrv.cli import main
from shatrv.emulator import MAX_MEMORY_SIZE
from shatrv.kernels import generate_kernel

GOOD_256 = f"""[L = 256]
Len = 0
Msg = 00
MD = {hashlib.sha3_256(b"").hexdigest()}

Len = 24
Msg = 616263
MD = {hashlib.sha3_256(b"abc").hexdigest()}
"""

BAD_256 = f"""[L = 256]
Len = 8
Msg = 00
MD = {"0" * 64}
"""


@pytest.fixture
def good_rsp(tmp_path):
    p = tmp_path / "good.rsp"
    p.write_text(GOOD_256)
    return p


@pytest.fixture
def bad_rsp(tmp_path):
    p = tmp_path / "bad.rsp"
    p.write_text(BAD_256)
    return p


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["bench", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 2
        capsys.readouterr()

    def test_missing_vector_file(self, capsys, tmp_path):
        assert main(["validate", "--vectors", str(tmp_path / "nope.rsp")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["validate"], ["validate", "--strategy", "shatr"], ["bench"],
    ])
    def test_an_empty_vector_directory_exits_2(self, capsys, tmp_path, argv):
        assert main(argv + ["--vectors", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", "error: no vectors selected\n")

    def test_a_variant_that_drops_every_vector_file_exits_2(self, capsys, good_rsp):
        assert main(["validate", "--vectors", str(good_rsp), "--variant", "sha3-224"]) == 2
        assert capsys.readouterr() == ("", "error: no vectors selected\n")

    @pytest.mark.parametrize("content,reason", [
        (b"\xff\xfe[L = 256]\n\x80\x81\n", "can't decode"),
        (b"Len = 8\nMsg = 616\nMD = " + b"0" * 64 + b"\n", "bad message hex"),
        (b"Len = 16\nMsg = 61\nMD = " + b"0" * 64 + b"\n", "but Len = 16"),
        (b"[L = 256]\nLen = 8\nMsg = 61\n", "unterminated record"),
        (None, "Is a directory"),
    ], ids=["undecodable", "odd-hex", "len-mismatch", "unterminated", "directory"])
    def test_a_garbage_vector_file_exits_2(self, capsys, tmp_path, content, reason):
        vectors = tmp_path / "vectors"
        vectors.mkdir()
        rsp = vectors / "SHA3_256ShortMsg.rsp"
        if content is None:
            rsp.mkdir()
        else:
            rsp.write_bytes(content)
        out = tmp_path / "report.json"
        assert main(["bench", "--vectors", str(vectors), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestValidate:
    def test_host_library_pass(self, capsys, good_rsp):
        assert main(["validate", "--vectors", str(good_rsp)]) == 0
        out = capsys.readouterr().out
        assert "2/2" in out

    def test_mismatch_sets_exit_code(self, capsys, bad_rsp):
        assert main(["validate", "--vectors", str(bad_rsp)]) == 1
        out = capsys.readouterr().out
        assert "mismatch" in out

    def test_guest_strategy_pass(self, capsys, good_rsp):
        rc = main(["validate", "--vectors", str(good_rsp), "--strategy", "shatr"])
        assert rc == 0
        capsys.readouterr()

    def test_label_names_each_strategy_once(self, capsys):
        rc = main(["validate", "--strategy", "shatr", "--strategy", "shatr",
                   "--variant", "sha3-224"])
        assert rc == 0
        assert capsys.readouterr().out == "11/11 vectors pass (guest shatr)\n"

    def test_label_follows_run_order(self, capsys, good_rsp):
        rc = main(["validate", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--strategy", "sw-mem"])
        assert rc == 0
        assert capsys.readouterr().out == "4/4 vectors pass (guest sw-mem/shatr)\n"

    def test_bundled_default(self, capsys):
        assert main(["validate", "--variant", "sha3-256"]) == 0
        capsys.readouterr()


class TestBench:
    def test_json_to_stdout(self, capsys, good_rsp):
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--strategy", "sw-mem", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert {g["strategy"] for g in doc["groups"]} == {"shatr", "sw-mem"}
        assert all(v["status"] == "pass" for v in doc["vectors"])

    def test_table_and_out_file(self, capsys, good_rsp, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--format", "table", "--out", str(out)])
        assert rc == 0
        assert "per-round" in out.read_text()
        capsys.readouterr()

    def test_failures_exit_1_but_still_report(self, capsys, bad_rsp):
        rc = main(["bench", "--vectors", str(bad_rsp), "--strategy", "shatr",
                   "--format", "csv"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("variant")

    def test_cost_flags_reach_the_report(self, capsys, good_rsp):
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--shatr-cycles", "7", "--mem-latency", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost_model"]["shatr_cycles"] == 7
        assert doc["cost_model"]["extra_mem_access_cycles"] == 2

    def test_budget_errors_exit_1(self, capsys, good_rsp):
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "sw-mem",
                   "--budget", "50"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flags, field", [
        (["--shatr-cycles", "-5"], "shatr_cycles"),
        (["--mem-latency", "-1"], "extra_mem_access_cycles"),
        (["--budget", "-1"], "budget"),
    ])
    def test_negative_cost_or_budget_exits_2(self, capsys, good_rsp, flags, field):
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--variant", "sha3-256"] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and "negative" in captured.err

    @pytest.mark.parametrize("mem_size", ["8192", "1048576"])
    def test_a_memory_too_small_for_the_kernel_exits_1(
            self, capsys, good_rsp, mem_size):
        rc = main(["bench", "--vectors", str(good_rsp), "--variant", "sha3-256",
                   "--mem-size", mem_size])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert {v["status"] for v in doc["vectors"]} == {"error"}

    def test_a_memory_size_past_the_ceiling_exits_2(self, capsys, good_rsp):
        rc = main(["bench", "--vectors", str(good_rsp), "--strategy", "shatr",
                   "--mem-size", str(MAX_MEMORY_SIZE + 1)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: memory too large: {MAX_MEMORY_SIZE + 1} "
                                f"(at most {MAX_MEMORY_SIZE} bytes)\n")


class TestGenKernels:
    def test_writes_all_combinations(self, capsys, tmp_path):
        rc = main(["gen-kernels", "--out", str(tmp_path)])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("*.s"))
        assert len(names) == 12
        assert "sha3-256-shatr.s" in names
        capsys.readouterr()

    def test_filters(self, capsys, tmp_path):
        rc = main(["gen-kernels", "--out", str(tmp_path),
                   "--variant", "sha3-512", "--strategy", "sw-mem"])
        assert rc == 0
        assert [p.name for p in tmp_path.glob("*.s")] == ["sha3-512-sw-mem.s"]
        text = (tmp_path / "sha3-512-sw-mem.s").read_text()
        assert "mem_round:" in text
        capsys.readouterr()


    def test_assembling_each_written_source_gives_the_bench_image(
            self, capsys, tmp_path):
        assert main(["gen-kernels", "--out", str(tmp_path)]) == 0
        sources = sorted(tmp_path.glob("*.s"))
        assert len(sources) == 12
        for src in sources:
            variant, strategy = src.stem[:8], src.stem[9:]
            assert main(["asm", str(src)]) == 0
            code = src.with_suffix(".bin").read_bytes()
            assert code == generate_kernel(strategy, variant).code, src.name
        capsys.readouterr()


class TestAsmDisasm:
    def test_round_trip(self, capsys, tmp_path):
        src = tmp_path / "prog.s"
        src.write_text("addi x1, x0, 5\nshatr x10\n")
        rc = main(["asm", str(src), "--out", str(tmp_path / "prog.bin")])
        assert rc == 0
        blob = (tmp_path / "prog.bin").read_bytes()
        assert blob == bytes.fromhex("93005000" + "0b000500")
        capsys.readouterr()
        rc = main(["disasm", str(tmp_path / "prog.bin")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "addi x1, x0, 5" in out
        assert "shatr x10" in out

    def test_asm_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "prog.s"
        src.write_text("bogus x1\n")
        assert main(["asm", str(src)]) == 2
        assert "line 1" in capsys.readouterr().err
