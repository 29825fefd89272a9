from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from rsumlab import bounds
from rsumlab.cli import FORMATS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSumsetCommand:
    def test_restricted_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "sumset", "--group", "Z7",
            "--A", "{1,2,3}", "--B", "{1,2,3}", "--S", "{0}",
        )
        assert code == 0
        assert out == "{3,4,5}\nsize=3\n"

    def test_plain_when_s_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--group", "Z5", "--A", "{0,1}", "--B", "{0,2}")
        assert code == 0
        assert out.splitlines()[0] == "{0,1,2,3}"

    @pytest.mark.parametrize("group,gamma,needle", [
        ("Z6", "2", "twisted sumset needs a prime cyclic group"),
        ("Z5", "5", "gamma must be non-zero"),
    ])
    def test_twisted_bad_input_exit_2(self, capsys, group, gamma, needle):
        code, out, err = run_cli(
            capsys, "sumset", "--group", group, "--A", "{0}", "--B", "{0}", "--gamma", gamma,
        )
        assert (code, out) == (2, "")
        assert needle in err

    def test_twisted(self, capsys):
        code, out, _ = run_cli(
            capsys, "sumset", "--group", "Z5", "--A", "{0,1,2}", "--B", "{0,1}",
            "--S", "{0}", "--gamma", "2",
        )
        assert code == 0
        assert out == "{1,2}\nsize=2\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sumset", "--group", "Z7", "--A", "{1,2,3}", "--B", "{1,2,3}",
            "--S", "{0}", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"group": "Z7", "result": "{3,4,5}", "size": 3}

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sumset", "--group", "Z7", "--A", "{1,9}", "--B", "{1}")
        assert code == 2
        assert "rsumlab:" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(
            capsys, "sumset", "--group", "Z5", "--A", "{1}", "--B", "{2}", "--out", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("rsumlab: cannot write the output:")
        assert "Traceback" not in err
        assert not path.exists()


class TestVerifyCommand:
    def test_thm1_json_no_violations(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--group", "Z5", "--bound", "thm1",
            "--max-s", "1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == []
        assert data["violation_count"] == 0
        assert data["triples_checked"] == 31 * 31 * 5
        assert "estimated triples" in err

    def test_unknown_bound_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--group", "Z5", "--bound", "nosuch")
        assert code == 2
        assert "nosuch" in err

    def test_shard_counts_byte_identical(self, capsys):
        outputs = set()
        for shards in ("1", "2", "8"):
            code, out, _ = run_cli(
                capsys, "verify", "--group", "Z7", "--bound", "pansun",
                "--max-s", "1", "--format", "json", "--shards", shards, "--no-timing",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_repeat_invocation_byte_identical(self, capsys):
        args = ("verify", "--group", "Z2xZ4", "--bound", "thm1", "--max-s", "2",
                "--format", "json", "--no-timing")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_sampled_seeded(self, capsys):
        args = ("verify", "--group", "Z12", "--bound", "kneser", "--sample", "200",
                "--seed", "7", "--format", "json", "--no-timing")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_s_free_bounds_default_to_empty_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "Z5", "--bound", "cd", "--bound", "kneser",
            "--format", "json", "--no-timing",
        )
        assert code == 0
        data = json.loads(out)
        assert data["constraints"]["s_size"] == [0, 0]
        assert data["triples_checked"] == 31 * 31

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "Z5", "--bound", "pansun", "--max-s", "1",
            "--format", "csv", "--max-witnesses", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "group,kind,A,B,S,gamma,lhs,rhs,tight"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code, out, _ = run_cli(
            capsys, "verify", "--group", "Z5", "--bound", "thm1", "--max-s", "1",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["violation_count"] == 0

    def test_work_ceiling_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--group", "Z16", "--bound", "ppow", "--max-s", "3",
        )
        assert code == 2
        assert "ceiling" in err

    def test_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RSUMLAB_THREADS", "2")
        code, out, _ = run_cli(
            capsys, "verify", "--group", "Z7", "--bound", "pansun", "--max-s", "1",
            "--shards", "2", "--format", "json", "--no-timing",
        )
        assert code == 0
        assert json.loads(out)["violation_count"] == 0


class TestThreadsAlone:
    @pytest.mark.parametrize("command", [
        ("verify", "--group", "Z7", "--bound", "pansun", "--max-s", "1", "--format", "json"),
        ("search", "--group", "Z5", "--bound", "anr", "--mode", "counterexample",
         "--format", "json"),
    ])
    def test_threads_shard_the_sweep(self, capsys, monkeypatch, command):
        # without --shards, the sweep is split into one shard per thread
        shard_counts = []
        sweep = bounds._sweep

        def spy(plan, cfg, work_ceiling, shard_count, threads, on_planned):
            shard_counts.append((shard_count, threads))
            return sweep(plan, cfg, work_ceiling, shard_count, threads, on_planned)

        monkeypatch.setattr(bounds, "_sweep", spy)
        outputs = []
        for threads in ("1", "2"):
            _, out, _ = run_cli(capsys, *command, "--no-timing", "--threads", threads)
            outputs.append(out)
        assert shard_counts == [(1, 1), (2, 2)]
        assert outputs[0] == outputs[1]
        assert outputs[0]


class TestCsvRows:
    # the exact bytes the CLI wrote before verify and search shared a writer
    @pytest.mark.parametrize("argv,expected", [
        (("verify", "--group", "Z5", "--bound", "twisted", "--max-s", "1", "--gamma", "2",
          "--max-witnesses", "3"),
         'group,kind,A,B,S,gamma,lhs,rhs,tight\n'
         'Z5,twisted,"{0,1}","{0,1,2,3}","{0}",2,3,3,true\n'
         'Z5,twisted,"{0,1}","{0,1,2,4}","{2}",2,3,3,true\n'
         'Z5,twisted,"{0,1}","{0,1,3,4}","{4}",2,3,3,true\n'),
        (("verify", "--group", "Z2xZ4", "--bound", "thm1", "--max-s", "1",
          "--max-witnesses", "2"),
         'group,kind,A,B,S,gamma,lhs,rhs,tight\n'
         'Z2xZ4,thm1,"{(0,0),(0,1)}","{(0,0),(0,1)}","{(0,0)}",,1,1,true\n'
         'Z2xZ4,thm1,"{(0,0),(0,1)}","{(0,1),(0,2)}","{(0,3)}",,1,1,true\n'),
        (("search", "--group", "Z5", "--bound", "anr", "--mode", "counterexample",
          "--max-witnesses", "3"),
         'group,kind,A,B,S,gamma,lhs,rhs,tight\n'
         'Z5,anr,"{0,1}","{0,1}","{}",,1,2,false\n'
         'Z5,anr,"{0,2}","{0,2}","{}",,1,2,false\n'
         'Z5,anr,"{1,2}","{1,2}","{}",,1,2,false\n'),
        (("search", "--group", "Z7", "--bound", "twisted", "--mode", "tight", "--gamma", "3",
          "--max-s", "1", "--max-witnesses", "2"),
         'group,kind,A,B,S,gamma,lhs,rhs,tight\n'
         'Z7,twisted,"{0,1}","{0,1,2,3,4,5}","{0}",3,5,5,true\n'
         'Z7,twisted,"{0,1}","{0,1,2,3,4,6}","{3}",3,5,5,true\n'),
        (("search", "--group", "Z7", "--bound", "thm1", "--mode", "counterexample",
          "--max-s", "1"),
         'group,kind,A,B,S,gamma,lhs,rhs,tight\n'),
    ])
    def test_rows_byte_identical(self, capsys, argv, expected):
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert out == expected


class TestNonsenseCounts:
    @pytest.mark.parametrize("flag,value", [
        ("--shards", "0"), ("--shards", "-3"), ("--threads", "0"), ("--threads", "-1"),
    ])
    @pytest.mark.parametrize("command", [
        ("verify", "--bound", "anr"), ("search", "--bound", "anr", "--mode", "counterexample"),
    ])
    def test_nonpositive_shards_or_threads_exit_2(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, *command, "--group", "Z5", flag, value)
        assert code == 2
        assert out == ""
        assert "must be >= 1" in err

    def test_nonpositive_threads_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RSUMLAB_THREADS", "0")
        code, _, _ = run_cli(capsys, "verify", "--group", "Z5", "--bound", "anr")
        assert code == 2

    @pytest.mark.parametrize("command", [
        ("verify", "--no-timing"), ("search", "--mode", "counterexample"),
        ("search", "--mode", "tight"),
    ])
    def test_zero_planned_checks_exit_2(self, capsys, command):
        # twisted has no gammas off Z_p: the sweep would check nothing
        code, out, err = run_cli(
            capsys, command[0], "--group", "Z6", "--bound", "twisted", "--gamma", "2",
            *command[1:],
        )
        assert code == 2
        assert out == ""
        assert "no checks planned" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "Z6", "--bound", "thm1", "--bound", "twisted", "--gamma", "2"),
        ("verify", "Z6", "--bound", "thm1", "--bound", "twisted"),
        ("verify", "Z6", "--bound", "all", "--gamma", "2"),
        ("verify", "Z6", "--bound", "thm1", "--gamma", "all"),
        ("search", "Z6", "--bound", "thm1", "--gamma", "2"),
        ("search", "Z6", "--bound", "twisted", "--mode", "counterexample"),
        ("verify", "Z7", "--bound", "thm1", "--gamma", "2"),
        ("search", "Z7", "--bound", "pansun", "--gamma", "3", "--mode", "counterexample"),
    ])
    def test_twisted_request_off_zp_exit_2(self, capsys, argv):
        # a sweep off Z_p has no gammas: it would drop the twisted bound and
        # the --gamma values without a word; on Z_p, --gamma without a
        # twisted bound would be dropped the same way
        command, group, *rest = argv
        code, out, err = run_cli(capsys, command, "--group", group, *rest, "--no-timing")
        assert code == 2
        assert out == ""
        assert "no checks planned" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--bound", "thm1"), ("search", "--bound", "thm1", "--mode", "tight"),
    ])
    def test_seed_without_sample_exit_2(self, capsys, command):
        # an exhaustive sweep draws nothing: the seed would vanish unread
        code, out, err = run_cli(capsys, *command, "--group", "Z5", "--seed", "9", "--no-timing")
        assert code == 2
        assert out == ""
        assert "--seed only applies to a --sample sweep" in err

    def test_bound_all_off_zp_still_sweeps_the_rest(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "Z6", "--bound", "all", "--max-a", "2", "--max-b", "2",
            "--no-timing",
        )
        assert code == 0
        # twisted has no checks off Z_p, so the report does not name it
        assert out.startswith("group=Z6 kinds=cd,kneser,eh,anr,karolyi,bw,pansun,thm1,ppow,"
                              "thm2,prop34 ")

    @pytest.mark.parametrize("gamma", [(), ("--gamma", "all")])
    def test_twisted_on_z2_exit_2(self, capsys, gamma):
        # the one non-zero gamma of Z2 is 1 = -1, which the twisted bound excludes
        assert list(bounds.default_gammas(2)) == []
        code, out, err = run_cli(capsys, "verify", "--group", "Z2", "--bound", "twisted",
                                 *gamma, "--no-timing")
        assert (code, out) == (2, "")
        assert "no checks planned" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--group", "Z7", "--gamma", "6", "--max-a", "2", "--max-b", "2"),
        ("search", "--group", "Z7", "--gamma", "2", "--gamma", "-1", "--mode", "tight",
         "--max-a", "2", "--max-b", "2"),
        ("verify", "--group", "Z2", "--gamma", "1"),
    ])
    def test_gamma_minus_one_exit_2(self, capsys, argv):
        # no twisted check applies at gamma = -1: the sweep would report clean
        # checks that can never fail
        code, out, err = run_cli(capsys, *argv, "--bound", "twisted", "--no-timing")
        assert (code, out) == (2, "")
        assert "is -1 modulo" in err

    def test_gamma_minus_one_counterexample_search(self, capsys):
        # a counterexample search drops the hypotheses, so gamma = -1 stays open
        code, out, _ = run_cli(
            capsys, "search", "--group", "Z7", "--bound", "twisted", "--gamma", "6",
            "--mode", "counterexample", "--max-a", "3", "--max-s", "1", "--max-witnesses", "2",
            "--format", "csv",
        )
        assert code == 1
        assert out == ('group,kind,A,B,S,gamma,lhs,rhs,tight\n'
                       'Z7,twisted,"{0,1,2}","{0,1,2,3,4,5,6}","{0}",6,6,7,false\n'
                       'Z7,twisted,"{0,1,2}","{0,1,2,3,4,5,6}","{1}",6,6,7,false\n')

    @pytest.mark.parametrize("argv", [
        ("verify", "--group", "Z7", "--bound", "twisted", "--gamma", "6",
         "--max-a", "2", "--max-b", "2"),
        ("search", "--group", "Z6", "--bound", "twisted", "--gamma", "2", "--mode", "tight"),
        ("verify", "--group", "Z16", "--bound", "ppow", "--max-s", "3"),
        ("search", "--group", "Z5", "--bound", "anr", "--mode", "tight", "--shards", "0"),
    ])
    def test_refused_sweep_prints_no_estimate(self, capsys, argv):
        # the estimate announces a sweep that runs, so a refused one prints none
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "estimated triples" not in err

    def test_bound_all_on_z2_leaves_out_twisted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "Z2", "--bound", "all",
                               "--no-timing", "--format", "json")
        assert code == 0
        summary = json.loads(out)
        assert "twisted" not in summary["kinds"] and summary["constraints"]["gammas"] == []
        assert summary["checks_planned"] == 18 * 11

    def test_negative_max_witnesses_exit_2(self, capsys):
        # each command names its own floor: a search lists only its witnesses
        for command, floor in ((("verify", "--bound", "thm1"), ">= 0"),
                               (("search", "--bound", "thm1"), ">= 1")):
            code, out, err = run_cli(capsys, *command, "--group", "Z5", "--max-witnesses", "-3",
                                     "--format", "json")
            assert (code, out) == (2, "")
            assert f"max_witnesses must be {floor}" in err

    @pytest.mark.parametrize("mode", ["tight", "counterexample"])
    def test_search_with_no_witnesses_exits_2(self, capsys, mode):
        # a search lists only its witnesses, so cap 0 would hide what it found
        code, out, err = run_cli(capsys, "search", "--group", "Z7", "--bound", "anr",
                                 "--mode", mode, "--max-a", "3", "--max-b", "3", "--max-s", "2",
                                 "--max-witnesses", "0")
        assert (code, out) == (2, "")
        assert "max_witnesses must be >= 1" in err and "estimated triples" not in err

    @pytest.mark.parametrize("flag", ["--prune", "--no-tight"])
    def test_verify_only_flags_rejected_by_search(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--group", "Z5", "--bound", "thm1", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        code, _, _ = run_cli(capsys, "verify", "--group", "Z5", "--bound", "thm1", flag)
        assert code == 0

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_nonpositive_sample_exit_2(self, capsys, value):
        code, out, err = run_cli(
            capsys, "verify", "--group", "Z5", "--bound", "anr", "--sample", value,
        )
        assert code == 2
        assert out == ""
        assert "sample_count" in err


# sha256 of `verify --max-a 3 --max-b 3 --max-s 2 --no-timing --format json`
# per (group, kind); None where no planned check can apply, so the sweep exits 2
GOLDEN_VERIFY_JSON = {
    ("Z7", "cd"): "5f101bc6ff7204d176992612bce02a7e0b01f34a6fa21a3f7b6b7fa8a687f80e",
    ("Z7", "kneser"): "f46783789ed6459b339e2e7f4ca13a11f554147d6a4ec075f662e6af828d7bde",
    ("Z7", "eh"): "7b180746c6902a80213b8c11cceb5494b6b343c30ccf7fbc4a4d6a857d7cc7b3",
    ("Z7", "anr"): "a71ec3b71decfa8e64b2156f7b2eb3804916cadb7bf7345fbffafa673c25d7b5",
    ("Z7", "karolyi"): "e67f1d658ec847bb57bb665e3fddd8658bb9fb67d0f5bb3deaa8a71e5f194d22",
    ("Z7", "bw"): "da585299e812863f9a25dd6af504770011b0e674f75fd8bda1269304dae83f59",
    ("Z7", "pansun"): "ec4048f6fa1a02edd8362ce7551e71c309cec80f359b265b520eb351f3bcd6ad",
    ("Z7", "thm1"): "ff79aa62a862455ce8f3101ac9113d02a542cb04e3122c538877fbc1759bb51e",
    ("Z7", "ppow"): "f54ec85ab9790339e2288325c7ce7e74f3479b76b5ba16ff190c7e16b2c2af34",
    ("Z7", "thm2"): "b5f3d10d7c3c57869863a9393b4e258527708881f19512b557b5320fd784bdea",
    ("Z7", "prop34"): "ba29041306a3e0233ed4edc159168cb93f49bc631df346b5eb505cb52b2d7d61",
    ("Z7", "twisted"): "156b7b80b95ba6d74c3c1b793e890eb11603e514cc40f7cfac1c73dc8cb6ce68",
    ("Z2xZ4", "cd"): None,
    ("Z2xZ4", "kneser"): "5cb3eb6d4ae25517faf54d6ff68e021b1da5f2d3463847db8f077822e7c0440d",
    ("Z2xZ4", "eh"): None,
    ("Z2xZ4", "anr"): None,
    ("Z2xZ4", "karolyi"): "bae5d49182c8bd9d7a5d8b1f34f2d56ea96e1f04b3f264e2c98df1a507d17da4",
    ("Z2xZ4", "bw"): "761704c76f4876443bd05588fdf070dca8afe1ac97e30c682db3c5050058db3f",
    ("Z2xZ4", "pansun"): None,
    ("Z2xZ4", "thm1"): "768091155f166a09252e6477d7ebf40435a4124d8345cb10c4b3382599e1b49f",
    ("Z2xZ4", "ppow"): None,
    ("Z2xZ4", "thm2"): "35b050586f6bf4c57df71907a34d906ceaf5a67d7a8bae46291168bc31c85fce",
    ("Z2xZ4", "prop34"): None,
    ("Z2xZ4", "twisted"): None,
    # `--bound all` names twisted only where it has checks: on Z_p
    ("Z6", "all"): "d65c73d608d7f4926ce6eabee3235252a81b2dc100441d483d72c1029d871db2",
}


class TestGoldenVerifyJson:
    @pytest.mark.parametrize("group,kind", sorted(GOLDEN_VERIFY_JSON))
    def test_bytes_match(self, capsys, group, kind):
        code, out, _ = run_cli(
            capsys, "verify", "--group", group, "--bound", kind, "--max-a", "3", "--max-b", "3",
            "--max-s", "2", "--no-timing", "--format", "json",
        )
        want = GOLDEN_VERIFY_JSON[group, kind]
        if want is None:
            assert (code, out) == (2, "")
        else:
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want


# sha256 of sampled `verify`/`search` runs with `--no-timing --format json`,
# which take the scalar per-triple path for every kind, and of full-size
# exhaustive runs with a small witness cap, where later |A| sizes compete
# for the capped rows
GOLDEN_SAMPLED_JSON = {
    "verify --group Z13 --bound all --gamma all --sample 500 --seed 3 --min-s 1 --max-s 3":
        "d6646751c0af201eb3dcc8f42500cb9eaa09479c38b0eb19a43cb81abc8f1ff1",
    "verify --group Z2xZ6 --bound all --sample 500 --seed 3 --min-s 0 --max-s 3":
        "0795ed31f65b5d071d1207054f679f52a48a030624276a2f36810580a4e7cb2f",
    "search --group Z13 --bound thm2 --mode counterexample --sample 500 --seed 3 "
    "--min-s 1 --max-s 2":
        "97d5e3d2224eae62e6c6c3e3fdbeb66efdf7f9b5c649b5d00abaa15c48072490",
    "search --group Z7 --bound twisted --gamma 1 --sample 300 --seed 3 "
    "--min-s 1 --max-s 2":
        "a2039370e2d5a488976eb1844c15d523215d9da95ca0da4cd80f707838f338a1",
    # A and S drawn among the sets containing 0, and checked as drawn
    "verify --group Z13 --bound all --sample 500 --seed 3 --canonicalize --canonicalize-s":
        "8ea430f90bb23387c186698bcda7fdc4f03260015745df3cffbe0cab0ebbe493",
    "verify --group Z7 --bound all --gamma 2 --gamma 3 --min-s 0 --max-s 2 "
    "--max-witnesses 5":
        "218492a6709b03d0455ce6b84e3b5968c3ea9e09d2a95174c74cfc19c2e4e60d",
    "verify --group Z2xZ4 --bound thm1 --bound bw --min-s 0 --max-s 2 --max-witnesses 3":
        "243c60aa1143014572b0b28b8e5eb467afdd224294d8fcd54439b560e2a5b075",
}


class TestGoldenSampledJson:
    @pytest.mark.parametrize("argv", sorted(GOLDEN_SAMPLED_JSON))
    def test_bytes_match(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split(), "--no-timing", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SAMPLED_JSON[argv]

    def test_gamma_all_is_the_default(self, capsys):
        # both leave out gamma = -1, the one gamma no twisted check applies to
        argv = next(a for a in GOLDEN_SAMPLED_JSON if "--gamma all" in a).split()
        i = argv.index("--gamma")
        outs = [run_cli(capsys, *args, "--no-timing", "--format", "json")[1]
                for args in (argv, argv[:i] + argv[i + 2:])]
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["constraints"]["gammas"] == list(range(1, 12))


# sha256 of stdout under `--format text`, `json` and `csv`, with the exit code,
# of every subcommand on a prime cyclic group and on Z2xZ4, whose elements
# hold commas, so that the CSV columns holding them must be quoted
GOLDEN_OUTPUT = {
    "sumset --group Z7 --A {1,2,3} --B {1,2,3} --S {0}":
        (0, ("90b16d5b3c274775fec43d1ac0d582c83c68f77eeb5f156d5192a1332aa4c6ee",
              "ff763ef602268dcc969e2dcdfd6df4721087704498273963a3dd1e3a0d02a3e4",
              "c6d7242048cd53846222625493441da99b355990910a22306ab0b49fba598961")),
    "sumset --group Z7 --A {0,1,2} --B {0,1} --S {0} --gamma 3":
        (0, ("6ceeee0f6e3d3a1472316c9051868583dbabd1a89363bd39cff8d06aee27e94e",
              "6eafde5d400a7081fe406ae028b680f3f9d8e5218a7d530c1c5f0daabb39e16d",
              "fbaf294de94d4943ed435cda922a18933d529f8c2149969c96b1ef83521d22aa")),
    "sumset --group Z2xZ4 --A {(0,0),(0,1)} --B {(0,0),(1,2)} --S {(0,0)}":
        (0, ("c665e27adac611332dfdb95543482e770dfa0ad7137a345e716ad31c362d4bc1",
              "42201e76d899808f8c5e722cddeb072c8d6e8a5436cd21494a0418a1ed4bc617",
              "9bfc49f18cab71818afc08ecb6907d304455fcbe3c59711e315f7e46c8422d74")),
    "verify --group Z7 --bound pansun --bound thm1 --max-a 3 "
    "--max-b 3 --max-s 1 --max-witnesses 3 --no-timing":
        (0, ("5c32fa3cf9b5eeb482b65c99073d69e3cdbcfa6981fdde0ef05e24e5b27a44e4",
              "b4d3a8059fcff9a2c25d329eb79a75a9a92ec00d6c208f616d68759dd8c4fe48",
              "656572ccd08420688b7e5626aa3849d75a8f46d0efa16438f024bc5cee96642f")),
    "verify --group Z7 --bound thm1 --max-a 3 --max-b 3 --max-s 1 --max-witnesses 0 --no-timing":
        (0, ("ac42b53cd8e510105af42d570fcecfb5aab32a6c90139d5a39df64058f51e43d",
              "87fdcbf448b387935a41917f538b4bb870b7928d4a60aa0a50f331f36c1bc065",
              "688fb0fcde8c1665922aec1b63e34bf825c0dd6ba2a069fa6c1ea90c4bc8abbc")),
    "verify --group Z2xZ4 --bound thm1 --max-a 3 --max-b 3 "
    "--max-s 1 --max-witnesses 2 --no-timing":
        (0, ("7a98bd35e4d92c10b45120a11bf24b0e5969cc2789947cd6bf322db54f501b8e",
              "e0a6c350bd7775d0bede81cb0fba01fd7492fbfe039d989b7514ad0e747b8ef4",
              "f695ea9b8ae174b247b10af6354e878cfff07a198c853be4ea4a61c5ab0e3d25")),
    "search --group Z7 --bound pansun --mode tight --max-a 3 "
    "--max-b 3 --max-s 1 --max-witnesses 3":
        (0, ("30a7544e351256227843d82d8eff11c1ddc5d0466066233c5ecf5ef580d8ae2c",
              "e2e35176c28db523528ca6577e56b5bfc2c1858ec5e676956187d33d9df2a795",
              "18fa0c4fff89488c2081b436988d3107610b2a48753166a3cabe5960f33939e0")),
    "search --group Z7 --bound anr --mode counterexample --max-a 2 --max-witnesses 3":
        (1, ("a4d683d66639e88c8393e5b987e2551df171f3c1e3252a317c62d14f9c22afb6",
              "a4e7cd99910ecc2c9e9fca3953b53f3bb69da426879553b3b43fc7b4eab16d2c",
              "c52d9596bd82c7f5ec686a1293b9b452741cd87f562f97d884b259af240b53b0")),
    "search --group Z7 --bound thm1 --mode counterexample --max-a 3 --max-b 3 --max-s 1":
        (0, ("6c52e7914f6f0b8678c67cd9170ecdfa94369ff94213a31388096bfeb0dca252",
              "de69f0b0186c67406373003ab037c34dd9cc6ea9db56dd5198aee9a86696ed5e",
              "688fb0fcde8c1665922aec1b63e34bf825c0dd6ba2a069fa6c1ea90c4bc8abbc")),
    "search --group Z2xZ4 --bound thm1 --mode tight --max-a 3 "
    "--max-b 3 --max-s 1 --max-witnesses 2":
        (0, ("5637ad49cc5e7c82ada215df18fb9bf0ccc0e9b9aad767bcd3834a9473ffa7b4",
              "39838a64571d1740ec56bd738a6b705e4d5baf361d937d51e19bf37e21e6ca05",
              "f695ea9b8ae174b247b10af6354e878cfff07a198c853be4ea4a61c5ab0e3d25")),
    "decompose --group Z7 --set {0,1,3} --subgroup {0}":
        (0, ("f9f9dca6057ecab910b6835ae84dc5eeba2ef6c47d80c77eea451a79a3339a55",
              "ea323ee27fdb71c183741fc0ddb4082f378f77bb084dffdea0fff7565aa843f4",
              "8e9e62604f3b6cf34460921dbccc3fb3b8ff0496ee75e1af109094d9444dc716")),
    "decompose --group Z2xZ4 --set {(0,0),(0,1),(1,2)} --subgroup {(0,0),(0,2)}":
        (0, ("9de244ac8e7818cc7d7d260216f728c2c6f9f042aca9a412bc2e88dcfbd7d6b5",
              "c807ca7366717b1ab48041b0fac30db1fd788749af427c7bae2f5a9c03719c50",
              "b7f51305e70aa4293deeb8a138cadb7d61c23e388d39fbbc6f5b9ec043b41f12")),
    "stabilizer --group Z7 --set {0,1,2,3,4,5,6}":
        (0, ("9f6c9185b3394c0af4f43cc24d4c3e6b69d2e25d6603f6eb1ee89a745848c82e",
              "f16ea23cec2694c38876b2ad81f3e7a747eced61e0eaad7673f4e18638113157",
              "65fad7ceb41a289b72e75aa0975deea5cfe71305d9007674281def2e6bd8f459")),
    "stabilizer --group Z2xZ4 --set {(0,0),(0,2),(1,1),(1,3)}":
        (0, ("d36d0d181db4d231971d04cdcca02e587c09bff6b90d076893c554bc7381bf28",
              "024b0985243b5868eb44cba851795c5fc21fdf146e41d0bb8ec9e4675151e0fe",
              "0551eb568d0f373dad12f5d604c6030097ce6e1a613a37f2e9369685d591625e")),
    "classify --group Z7 --A {1,3,5} --B {2,4}":
        (0, ("70dc598f63729bfa1f53f2fb39c1a94600d61f9f5bcf9efadeb84cf91e68aa94",
              "6124c2161b83d754527c47efa5330f9d4e3cbaef5524054af6e278d09f112b8f",
              "61ccdc50ce6e880a292eafb123f5d2b40e5f1e0a5694c8ef7df4378afbfce52d")),
    "classify --group Z2xZ4 --A {(0,1)} --B {(1,2)}":
        (0, ("a180542b8f5b3e20bf863bf682a3b2d5c43d0f96e7114530527529be72680878",
              "67b4274b078584b727c1900a41c603e886e2260463a14599067b4e1d4d78e70a",
              "5e1365871959e851dff2529d9332e1155bcc9b8b399148f445314050ca9db560")),
    "sdr --group Z7 --A {0,1,2,3} --B {0,1,2,3} --S {0} --variant lemma22":
        (0, ("eb855493dc675ab90c7892b32ada0c3be50e2a523c5e15fdcf47721b7fa0f688",
              "a8eaaf53f62cf7fa40897f651366af17d3a1878c6f3524d272bb22824735c9b3",
              "b3735f7aca4f48242a21cb4623cfdf57ab373f2cf5aa0293f27bc6290e9ad555")),
    "sdr --group Z2xZ4 --A {(0,0),(0,1),(0,2),(0,3)} --B {(1,0)} --S {(0,0)} --variant lemma33":
        (0, ("b4858404f6a91ffc3b9f2859c7883a285d7f75098f121befab7314c7f17bc1e3",
              "df5e67a6236ec139917b3261e9ea6e6bd6f4ba6aa920c2fdf738cff3c13b52c7",
              "25f301d40070be96af377b89fe3a0396efd72f2e5ccff6ffdaeaca1671910da0")),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", sorted(GOLDEN_OUTPUT))
    def test_bytes_match(self, capsys, argv, fmt):
        want_code, digests = GOLDEN_OUTPUT[argv]
        code, out, _ = run_cli(capsys, *argv.split(), "--format", fmt)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == digests[FORMATS.index(fmt)]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_refused_sweep_bytes(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "verify", "--group", "Z7", "--bound", "twisted", "--gamma", "6",
            "--max-a", "2", "--max-b", "2", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err == ("rsumlab: gamma = 6 is -1 modulo 7, where no twisted check applies; "
                       "only a counterexample search, which drops the hypotheses, takes it\n")

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_bad_threads_env_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("RSUMLAB_THREADS", "x2")
        code, out, err = run_cli(capsys, command, "--group", "Z5", "--bound", "anr")
        assert (code, out, err) == (2, "", "rsumlab: bad RSUMLAB_THREADS value 'x2'\n")


class TestSearchCommand:
    def test_tight_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--group", "Z7", "--bound", "pansun", "--mode", "tight",
            "--max-s", "1", "--max-witnesses", "5",
        )
        assert code == 0
        assert "found=5" in out.splitlines()[0]
        assert out.count("TIGHT") == 5

    def test_counterexample_found_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--group", "Z5", "--bound", "anr",
            "--mode", "counterexample",
        )
        assert code == 1
        assert "COUNTEREXAMPLE" in out

    def test_counterexample_empty_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--group", "Z5", "--bound", "thm1",
            "--mode", "counterexample", "--max-s", "1",
        )
        assert code == 0
        assert "found=0" in out


class TestStructureCommands:
    def test_decompose(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--group", "Z6", "--set", "{0,1,3}", "--subgroup", "{0,3}",
        )
        assert code == 0
        assert out.splitlines() == [
            "subgroup={0,3} parts=2",
            "part rep=0 fiber={0,3}",
            "part rep=1 fiber={0}",
        ]

    def test_decompose_bad_subgroup_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--group", "Z6", "--set", "{0}", "--subgroup", "{0,1}",
        )
        assert code == 2
        assert "closed" in err

    def test_stabilizer(self, capsys):
        code, out, _ = run_cli(capsys, "stabilizer", "--group", "Z4", "--set", "{0,2}")
        assert code == 0
        assert out == "{0,2}\norder=2\n"

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--group", "Z7", "--A", "{4}", "--B", "{1,2,5}")
        assert code == 0
        assert "singleton side=A" in out

    def test_classify_not_critical_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--group", "Z7", "--A", "{0,1}", "--B", "{0,3}")
        assert code == 2
        assert "critical" in err

    def test_sdr(self, capsys):
        code, out, _ = run_cli(
            capsys, "sdr", "--group", "Z7", "--A", "{0,1,2,3}", "--B", "{0,1,2,3}",
            "--S", "{0}", "--variant", "lemma22",
        )
        assert code == 0
        assert "length=1" in out.splitlines()[0]

    def test_sdr_hypothesis_violation_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sdr", "--group", "Z7", "--A", "{0,1,2}", "--B", "{0,1}",
            "--S", "{0}", "--variant", "lemma22",
        )
        assert code == 2
        assert ">=" in err

    def test_sdr_lemma32_with_s_exit_2(self, capsys):
        # lemma32 selects from A + B; an S it would not read is an input error
        code, out, err = run_cli(
            capsys, "sdr", "--group", "Z5", "--A", "{0,1}", "--B", "{0,2}",
            "--S", "{0,1,2,3,4}", "--variant", "lemma32",
        )
        assert (code, out) == (2, "")
        assert "lemma32" in err

    def test_csv_rows_match_header_on_rank_2(self, capsys):
        # elements of a rank-2 group contain commas, so every field holding
        # one must be quoted
        for argv in (
            ("sumset", "--A", "{(0,0),(0,1)}", "--B", "{(0,0),(1,2)}", "--S", "{(0,0)}"),
            ("decompose", "--set", "{(0,0),(0,1),(1,2)}", "--subgroup", "{(0,0),(0,2)}"),
            ("stabilizer", "--set", "{(0,0),(0,2)}"),
            ("classify", "--A", "{(0,1)}", "--B", "{(1,2)}"),
            ("sdr", "--A", "{(0,0),(0,1),(0,2),(0,3)}", "--B", "{(1,0)}", "--S", "{(0,0)}",
             "--variant", "lemma33"),
        ):
            code, out, _ = run_cli(capsys, argv[0], "--group", "Z2xZ4", *argv[1:],
                                   "--format", "csv")
            assert code == 0, argv[0]
            header, *rows = csv.reader(io.StringIO(out))
            assert rows, argv[0]
            assert all(len(row) == len(header) for row in rows), argv[0]

    def test_json_formats(self, capsys):
        for argv in (
            ("decompose", "--group", "Z6", "--set", "{0,1,3}", "--subgroup", "{0,3}"),
            ("stabilizer", "--group", "Z4", "--set", "{0,2}"),
            ("classify", "--group", "Z7", "--A", "{4}", "--B", "{1,2,5}"),
            ("sdr", "--group", "Z5", "--A", "{0,1}", "--B", "{0,2}", "--variant", "lemma32"),
        ):
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            json.loads(out)


class TestHelp:
    def test_subcommand_help_names_constructs(self, capsys):
        for cmd, needle in (
            ("verify", "Cauchy-Davenport"),
            ("sumset", "restricted sumset"),
            ("decompose", "cosets"),
            ("stabilizer", "Kneser"),
            ("classify", "inverse-theorem"),
            ("sdr", "index windows"),
            ("search", "counterexample"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            flat = " ".join(capsys.readouterr().out.split())
            assert needle in flat, cmd

    def test_entry_point_roundtrip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rsumlab", "sumset", "--group", "Z7",
             "--A", "{1,2,3}", "--B", "{1,2,3}", "--S", "{0}"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{3,4,5}\nsize=3\n"

    def test_missing_subcommand_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rsumlab"], capture_output=True, text=True
        )
        assert proc.returncode == 2
