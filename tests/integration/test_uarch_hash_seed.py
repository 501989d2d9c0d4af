"""Integration: the emitted ``.uarch`` does not depend on string hashing.

The emitter collects intra-instruction path edges in a set; ordering
them by stage alone left same-stage ties in set-iteration order, which
follows Python's per-process string hash seed.  This scope has two
single-element shared locations at one stage (``r_addr``, ``r_write``)
that both feed the memory, so such a tie is present.  A scoped
synthesis in two subprocesses under different ``PYTHONHASHSEED`` values
must write byte-identical models.
"""

import hashlib
import os
import subprocess
import sys

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")

SCOPE = ("core_gen[0].core.inst_DX,the_mem.mem,"
         "the_mem.r_addr,the_mem.r_write")

UARCH_SHA256 = \
    "e9493fd025bb74c7bb49c2959f10f2326ff9c501885926119f10940da367774f"


def test_uarch_identical_under_two_hash_seeds(tmp_path):
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = seed
        out = tmp_path / f"seed{seed}.uarch"
        # Both runs go at once: one worker process each.
        procs.append((out, subprocess.Popen(
            [sys.executable, "-m", "repro", "synth", "--jobs", "1",
             "--max-k", "1", "--candidates", SCOPE, "-o", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
    texts = []
    for out, proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode(errors="replace")
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0]).hexdigest() == UARCH_SHA256
