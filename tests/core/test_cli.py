"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.pm import PMDevice, SimClock


@pytest.fixture
def image(tmp_path):
    img = str(tmp_path / "disk.img")
    assert main(["mkfs", img, "--pages", "2048", "--inodes", "128"]) == 0
    return img


class TestLifecycle:
    def test_mkfs_creates_loadable_image(self, image):
        dev = PMDevice.load_image(image, clock=SimClock())
        assert dev.size == 2048 * 4096
        assert dev.model.name == "OptaneDCPM"

    def test_mkfs_baseline_variant(self, tmp_path):
        img = str(tmp_path / "nova.img")
        assert main(["mkfs", img, "--variant", "nova",
                     "--pages", "1024", "--inodes", "64"]) == 0
        assert main(["dedup", img]) == 1  # no dedup layer

    @pytest.mark.parametrize("variant", ["denova-inline",
                                         "denova-inline-adaptive"])
    def test_mkfs_rejects_inline_variants(self, tmp_path, capsys, variant):
        """The image format cannot record an inline variant; formatting
        one would silently mount as offline DeNova."""
        img = tmp_path / "inline.img"
        assert main(["mkfs", str(img), "--variant", variant,
                     "--pages", "1024", "--inodes", "64"]) == 2
        err = capsys.readouterr().err
        assert "cannot be recorded in an image" in err
        assert "run_workload" in err
        assert not img.exists()

    def test_mkfs_profile(self, tmp_path):
        img = str(tmp_path / "pcm.img")
        assert main(["mkfs", img, "--profile", "PCM",
                     "--pages", "1024", "--inodes", "64"]) == 0
        assert PMDevice.load_image(img).model.name == "PCM"

    def test_put_get_roundtrip(self, image, tmp_path, capsys):
        src = tmp_path / "src.bin"
        payload = bytes(range(256)) * 30
        src.write_bytes(payload)
        assert main(["put", image, "/data", str(src)]) == 0
        dst = tmp_path / "dst.bin"
        assert main(["get", image, "/data", str(dst)]) == 0
        assert dst.read_bytes() == payload

    def test_put_overwrites(self, image, tmp_path):
        a = tmp_path / "a"
        a.write_bytes(b"version one, long " * 100)
        b = tmp_path / "b"
        b.write_bytes(b"v2")
        main(["put", image, "/f", str(a)])
        main(["put", image, "/f", str(b)])
        out = tmp_path / "out"
        main(["get", image, "/f", str(out)])
        assert out.read_bytes() == b"v2"

    def test_ls_and_rm(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"x")
        main(["put", image, "/a.txt", str(f)])
        main(["put", image, "/b.txt", str(f)])
        capsys.readouterr()
        assert main(["ls", image, "/"]) == 0
        out = capsys.readouterr().out
        assert "a.txt" in out and "b.txt" in out
        assert main(["rm", image, "/a.txt"]) == 0
        capsys.readouterr()
        main(["ls", image, "/"])
        out = capsys.readouterr().out
        assert "a.txt" not in out


class TestDedupAndStats:
    def test_dedup_reports_savings(self, image, tmp_path, capsys):
        f = tmp_path / "dup"
        f.write_bytes(b"\xab" * 8192)
        main(["put", image, "/one", str(f)])
        main(["put", image, "/two", str(f)])
        capsys.readouterr()
        assert main(["dedup", image]) == 0
        out = capsys.readouterr().out
        assert "pages saved" in out
        main(["stats", image])
        out = capsys.readouterr().out
        assert "dedup saving" in out

    def test_workload_command(self, image, capsys):
        assert main(["workload", image, "--files", "30",
                     "--dup", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert main(["fsck", image]) == 0


class TestCrashFsck:
    def test_crash_then_fsck_recovers(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"survivor" * 100)
        main(["put", image, "/s", str(f)])
        assert main(["crash", image]) == 0
        capsys.readouterr()
        assert main(["fsck", image, "--scrub"]) == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        dst = tmp_path / "out"
        main(["get", image, "/s", str(dst)])
        assert dst.read_bytes() == b"survivor" * 100

    def test_fsck_clean_image(self, image, capsys):
        assert main(["fsck", image]) == 0
        assert "clean" in capsys.readouterr().out


class TestModelCommand:
    def test_bench_model_prints_inequality(self, capsys):
        assert main(["bench-model", "--size", "4096",
                     "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "T_w" in out and "T_f" in out


BAD_IMAGES = {
    "missing": None,
    "empty": lambda good: b"",
    "garbage": lambda good: bytes(range(256)) * 20,
    "truncated": lambda good: good[:100000],
}

BAD_IMAGE_REASONS = {
    "missing": "No such file or directory",
    "empty": "not a PM device image",
    "garbage": "not a PM device image",
    "truncated": "truncated image",
}


class TestBadImage:
    @pytest.mark.parametrize("command", ["fsck", "stats", "ls"])
    @pytest.mark.parametrize("kind", sorted(BAD_IMAGES))
    def test_one_stderr_line_and_exit_2(self, image, tmp_path, capsys,
                                        kind, command):
        bad = tmp_path / f"{kind}.img"
        if BAD_IMAGES[kind] is not None:
            with open(image, "rb") as fh:
                bad.write_bytes(BAD_IMAGES[kind](fh.read()))
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err and BAD_IMAGE_REASONS[kind] in err

    def test_short_header_is_truncated_not_struct_error(self, image):
        with open(image, "rb") as fh:
            head = fh.read(12)
        open(image, "wb").write(head)
        with pytest.raises(ValueError, match="truncated"):
            PMDevice.load_image(image)


class TestImageFormat:
    def test_load_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.img"
        bad.write_bytes(b"NOTANIMG" + bytes(100))
        with pytest.raises(ValueError, match="not a PM device image"):
            PMDevice.load_image(str(bad))

    def test_load_truncated(self, image):
        data = open(image, "rb").read()
        open(image, "wb").write(data[:len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            PMDevice.load_image(image)

    def test_save_drops_volatile_state(self, tmp_path):
        from repro.pm import DRAM

        dev = PMDevice(64 * 4096, model=DRAM, clock=SimClock())
        dev.write(0, b"durable!")
        dev.persist(0, 8)
        dev.write(64, b"volatile")
        img = str(tmp_path / "d.img")
        dev.save_image(img)
        # The live device still sees its volatile bytes...
        assert dev.read(64, 8) == b"volatile"
        # ...but the image is the power-cycle view.
        dev2 = PMDevice.load_image(img)
        assert dev2.read(0, 8) == b"durable!"
        assert dev2.read(64, 8) == bytes(8)


class TestTreeDu:
    def test_tree_and_du(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"\xee" * 8192)
        main(["put", image, "/one", str(f)])
        main(["put", image, "/two", str(f)])
        capsys.readouterr()
        assert main(["tree", image]) == 0
        out = capsys.readouterr().out
        assert "one (8192 B)" in out and "two (8192 B)" in out
        main(["dedup", image])
        capsys.readouterr()
        assert main(["du", image]) == 0
        out = capsys.readouterr().out
        assert "unique data pages" in out
        # 2 files x 2 identical pages -> 1 unique data page after dedup.
        assert "    1" in out.splitlines()[-2] or " 1" in out


class TestFuzzCommand:
    def test_small_campaign_clean(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--ops", "60", "--seq-ops", "20",
                   "--budget", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLEAN" in out
        assert "fuzz.sequences_total" in out

    def test_json_output(self, capsys):
        import json as _json

        rc = main(["fuzz", "--seed", "1", "--ops", "40", "--seq-ops", "20",
                   "--budget", "2", "--json"])
        payload = _json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["sequences"] == 2
        assert payload["failures"] == []

    def test_corpus_replay_roundtrip(self, tmp_path, capsys):
        from repro.fuzz.gen import generate_sequence
        from repro.workloads.trace import Trace

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        ops = generate_sequence(seed=2, stream=0, nops=10)
        Trace(ops=list(ops)).save(corpus / "case.trace")
        rc = main(["fuzz", "--ops", "10", "--budget", "2",
                   "--corpus", str(corpus), "--replay-corpus"])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out
