from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from rsumlab import bounds
from rsumlab.cli import main


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
        run_sweep = bounds._run_sweep

        def spy(plan, cfg, shard_count, threads, planned):
            shard_counts.append((shard_count, threads))
            return run_sweep(plan, cfg, shard_count, threads, planned)

        monkeypatch.setattr(bounds, "_run_sweep", spy)
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

    def test_negative_max_witnesses_exit_2(self, capsys):
        for command in (("verify", "--bound", "thm1"), ("search", "--bound", "thm1")):
            code, out, err = run_cli(capsys, *command, "--group", "Z5", "--max-witnesses", "-3",
                                     "--format", "json")
            assert (code, out) == (2, "")
            assert "max_witnesses must be >= 0" in err

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
# per (group, kind); None where the sweep plans no checks and exits 2
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
    ("Z2xZ4", "cd"): "ac3adace6bc003e37d69e7fb45f313541ca4578f8a6f927b28a6d6f609a76222",
    ("Z2xZ4", "kneser"): "5cb3eb6d4ae25517faf54d6ff68e021b1da5f2d3463847db8f077822e7c0440d",
    ("Z2xZ4", "eh"): "fb1d6ab7017376677b2327f301638e9538733ae2dbe7f6aabb37b263fdda42a5",
    ("Z2xZ4", "anr"): "22855a1e6f97ab159da001b83fcd844590a1d97db3f8915b0a589610dd0b29ed",
    ("Z2xZ4", "karolyi"): "bae5d49182c8bd9d7a5d8b1f34f2d56ea96e1f04b3f264e2c98df1a507d17da4",
    ("Z2xZ4", "bw"): "761704c76f4876443bd05588fdf070dca8afe1ac97e30c682db3c5050058db3f",
    ("Z2xZ4", "pansun"): "7dfe849740c771656881ef5e86f160507aa8e1c4613167267654974612840f50",
    ("Z2xZ4", "thm1"): "768091155f166a09252e6477d7ebf40435a4124d8345cb10c4b3382599e1b49f",
    ("Z2xZ4", "ppow"): "4d8d927d1e1138a92764bd1faad668cc9499b3b0f7632d6bf071721ac893affc",
    ("Z2xZ4", "thm2"): "35b050586f6bf4c57df71907a34d906ceaf5a67d7a8bae46291168bc31c85fce",
    ("Z2xZ4", "prop34"): "96d13b0b16afa04f51370a1e81b16403b44d7a1660dc140691c62fad743d8e5c",
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
# which take the scalar per-triple path for every kind
GOLDEN_SAMPLED_JSON = {
    "verify --group Z13 --bound all --gamma all --sample 500 --seed 3 --min-s 1 --max-s 3":
        "d6646751c0af201eb3dcc8f42500cb9eaa09479c38b0eb19a43cb81abc8f1ff1",
    "verify --group Z2xZ6 --bound all --sample 500 --seed 3 --min-s 0 --max-s 3":
        "0795ed31f65b5d071d1207054f679f52a48a030624276a2f36810580a4e7cb2f",
    "search --group Z13 --bound thm2 --mode counterexample --sample 500 --seed 3 "
    "--min-s 1 --max-s 2":
        "97d5e3d2224eae62e6c6c3e3fdbeb66efdf7f9b5c649b5d00abaa15c48072490",
    "search --group Z7 --bound twisted --gamma 1 --gamma 6 --sample 300 --seed 3 "
    "--min-s 1 --max-s 2":
        "a2039370e2d5a488976eb1844c15d523215d9da95ca0da4cd80f707838f338a1",
    # A and S drawn among the sets containing 0, and checked as drawn
    "verify --group Z13 --bound all --sample 500 --seed 3 --canonicalize --canonicalize-s":
        "8ea430f90bb23387c186698bcda7fdc4f03260015745df3cffbe0cab0ebbe493",
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
