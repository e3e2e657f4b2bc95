"""Golden CLI output: stdout, stderr and exit code of fixed commands, pinned by SHA-256.

The commands are bench operations at seed 1 (reflection, free-endpoint and DP
counts), counts at the edge of the work budget (the axis signed sum at k = 3
from (1, 2, 3) back to itself, answered at n = 48, where the layer walk of
earlier versions was refused, and first refused at n = 504, n = 503 being 0 by
the step parity, its ring products and held integers priced as the free-endpoint
Pfaffian's; the lock-step DP refused just over it; two answered just under it;
random turns at k = 2, n = 400000, refused at once since each row's
``math.comb`` is charged by its growth; lock-step at k = 7, n = 2000, refused at
once since each streamed term is charged its products of ints by their bit
sizes), an axis count at k = 1, n = 2236
that the layer walk refused and the diagonal steps of the rotated route
answer, a preset, a compare grid, a budget refusal,
a DP count whose end point is exactly n*degree steps away, presets at their
default end points (one at n = 0, where there is no estimate), a star of 18
walkers, a free axis count at k = 2, n = 400, the edges of the free-endpoint
budget (random turns at k = 3 answered at n = 814 and refused at n = 815, a
star at n = 100 refused first at k = 27), two signed sums of one
atomic length (lock-step k = 7 at the wall, and rational weights 0,1/3), the
leading-order estimates with a fixed and a free end (axis 1,1,1 at k = 2,
diagonal 0,1 at k = 3, and rational weights 1/2,1/3), a fixed-end compare grid
as JSON and as CSV, the fallback branches of two presets (a watermelon and a
star away from their default end points), and two verify runs (every suite at
seed 7; dsin and signs at seed 3).  A digest that moves means the CLI prints
something else for the same flags.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chamberwalk

SRC_DIR = Path(chamberwalk.__file__).parent.parent

# command -> sha256 of json.dumps([exit code, stdout, stderr])
GOLDEN = [
    ("count --kind axis --k 2 --weights 1,1,1 --u 2,4 --v 3,4 --n 26 --method reflection",
     "5e513200757e2ccabbd79ca94fa09d7bebdb83545a99fb51e7e1c8a491ef9ff0"),
    ("count --kind axis --k 2 --weights 1/2,1/3 --u 1,4 --v 1,4 --n 26 --method reflection",
     "a7ed191c9a2e18d89effdb08f21668c1f2649130c5e6929235c35254c7d768f5"),
    ("count --kind diagonal --k 2 --weights 0,1,1 --u 3,5 --v 1,5 --n 20 --method reflection",
     "080572dfca3eedea785c56251e62349325aa5b699d53a2b03f702fd6a830bd14"),
    ("count --kind diagonal --k 6 --weights 0,1 --u 3,5,7,9,11,13 --v 1,3,7,9,11,13 --n 100 "
     "--method reflection",
     "4d86a4b239bc785864b4cb669aaa3deb00972547077e6fdc5467a00ded058c95"),
    ("count --kind axis --k 2 --weights 0,1 --u 3,4 --n 30 --method reflection",
     "ae81da85314a34100aba8d9a8d617d80bd9bb852d784876048ea23277555858d"),
    ("count --kind diagonal --k 3 --weights 0,1 --u 3,5,7 --v 1,3,7 --n 60 --method dp",
     "5ca547a0776cfae5562338ce2667a10ecfd59b109eea98b132f0aad94bce40b3"),
    ("count --kind axis --k 3 --weights 0,1 --u 1,3,5 --v 1,3,5 --n 40 --method dp",
     "af7d52ce44254d65944b1fe1aed89004ddcab44e076e49d5182f1692ee499719"),
    ("count --kind diagonal --k 4 --weights 0,1 --u 1,3,5,9 --n 30 --method dp",
     "d3ea1615bccc45c53781d841c3a4fbabeb054049adb8ea9aaab544b968ebbba8"),
    ("count --kind axis --k 2 --weights 0,1,1 --u 2,4 --v 2,4 --n 10:50:10 --method dp",
     "8245d896f46caf823b8a1c39c59b1218390f6e357584c88b13c5a8d4ff1c0c69"),
    ("count --kind diagonal --k 1 --weights 0,1 --u 1 --v 1 --n 4470 --method dp",
     "6b851bc3d59451aba529f9ef5f4f0c1360bda60a28e1d027aa11e47b6d1da2a1"),
    ("count --kind axis --k 1 --weights 1,1 --u 1 --v 1 --n 2236 --method reflection",
     "8cde991c7d2777784827f6953c5fdc05baa506c9255eb09ad237b51adec1df27"),
    ("count --kind axis --k 3 --weights 0,1 --u 1,2,3 --v 1,2,3 --n 48 --method reflection",
     "f4a847684ff0ab05ef6cbd81dc3622828d56eedbb5e5d31fd907883052d8b428"),
    ("count --kind axis --k 3 --weights 0,1 --u 1,2,3 --v 1,2,3 --n 504 --method reflection",
     "50a671d3dc6aef9cd0a7323fec0488043d8f3cc9443788d48f6fca8821577ddf"),
    ("preset random-turns-fixed --k 2 --n 400000",
     "e8acba0adf245ca31f89fe58a04d4110665e12923644e6cc42d5d51e3d17d0c3"),
    ("preset lock-step-fixed --k 7 --n 2000",
     "82c3200a826c08e2c6c8c53821812835af6104c8ac89860234cd8e060e50810e"),
    ("count --kind axis --k 3 --weights 0,1 --u 1,2,3 --v 1,2,4 --n 77 --method dp",
     "ba4af855a4ae79420d2d4ec9163f51fc9ba38b5303d474b10c50a6ddc9133559"),
    ("preset tangled-isolated --k 2 --n 12",
     "204653b54de148aa2c00e1051d4bae9e669de0e53f8d200a23d35c5509cd322b"),
    ("compare --kind axis --k 2 --weights 0,1 --u 3,4 --grid 8:24:8",
     "6817c37bdf2a1e08c047a7e0a65be57d41278f7eaabe7b03c5067aa29cca6020"),
    ("count --kind axis --k 3 --weights 0,1 --u 1,2,5 --v 3,4,5 --n 400 --method dp",
     "4794ebcbb1d8d9f001a0cd1d33ce2a94789460b97bd5d56c12160caef6845a4a"),
    ("count --kind axis --k 2 --weights 1,1,1 --u 1,2 --v 21,22 --n 20 --method dp",
     "3ac92156ad2064b4b11f9a86fe9d21875e2bc0c70338cc22f4b948bc639ef964"),
    ("count --kind diagonal --k 3 --weights 0,1 --u 1,3,5 --v 1,3,5 --n 118 --method dp",
     "4efe67637570ff2cff60df41ded081dec7c787dcea06158740700aa3ef43fe74"),
    ("preset lock-step-fixed --k 2 --n 10",
     "efe1c9199cf868aa90c214aa038f3f8200e5cfcdebb3e4f8cc824018f148a761"),
    ("preset star --k 18 --n 100",
     "81f4333ab4cda342b53fdfd72db8f183e0f3d92748c4091b7d69f477dba3f946"),
    ("preset star --k 2 --n 0",
     "cffce81dd864944dbab197d49b87893b42b69b643bd9a9a119a83e673a29e6a0"),
    ("count --kind axis --k 2 --weights 0,1 --u 1,3 --n 400 --method reflection",
     "1c59c33412230a0222d07cc095a4b0e7ddfdda9eed57166218288de7cbee46ab"),
    ("preset random-turns-free --k 3 --n 814",
     "f9e14e553b7ec92dccf6a912b6b9bcae22efd7dbf21db6261bd0437a6c0d8f1a"),
    ("preset random-turns-free --k 3 --n 815",
     "18d3e751292c08bdce8af832f5adb98dff821d14d99a09ab39696d339ed15cbb"),
    ("preset star --k 27 --n 100",
     "77232c74dc52fdcdecdd11830112bda44a2f08fbd54254302bc4b5b91d71ef2e"),
    ("count --kind diagonal --k 7 --weights 0,1 --u 1,3,5,7,9,11,13 --v 1,3,5,7,9,11,13 "
     "--n 40 --method reflection",
     "9e200287c41f5c6943c97040984999c9be4002daa6b7c4715b93c346198c3ae4"),
    ("count --kind diagonal --k 3 --weights 0,1/3 --u 1,3,5 --v 1,3,7 --n 20 --method reflection",
     "a1268ee82de6027a6ae826a0e976f5ab445998148fbfe5884793e5cbe0b25136"),
    ("asym --kind axis --k 2 --weights 1,1,1 --u 1,2 --v 1,2 --n 40",
     "3371392a61b8e7353025365f7113c79ce712c01413187eb8806d83753441e7b4"),
    ("asym --kind axis --k 2 --weights 1,1,1 --u 1,2 --n 40",
     "265ffb9874e7d68e75b8c54e10af33770825f0c1b92a4f49e26d93eefa86f3f9"),
    ("asym --kind diagonal --k 3 --weights 0,1 --u 1,3,5 --v 3,5,9 --n 30",
     "29cb8406ca4825e95b2a55311edad6f65e48fa3d3afee01f46e5f88654b764fd"),
    ("asym --kind diagonal --k 3 --weights 0,1 --u 1,3,5 --n 30",
     "eba6a963c9707a5e5b196e1d0b1231d69559f2bb44272299f43fa9157dc7cc25"),
    ("asym --kind axis --k 2 --weights 1/2,1/3 --u 1,4 --v 2,3 --n 25",
     "e55e78c3fa674d2ddc20419a7d169e47351f4126d173ccf873a6707490f94ac2"),
    ("asym --kind axis --k 2 --weights 1/2,1/3 --u 1,4 --n 25",
     "5fbb1dbae81b4f6c370bc9f095929bf21367450354d0960932b92fb938807a35"),
    ("compare --kind diagonal --k 2 --weights 0,1 --u 1,3 --v 1,3 --grid 20:80:20",
     "cff6995565c75faffc42a7eacf9320d385e698f4f05f1764219d08c68e5e3c8b"),
    ("compare --kind diagonal --k 2 --weights 0,1 --u 1,3 --v 1,3 --grid 20:80:20 --format csv",
     "851003d6f92e825ef1da2d7d742bdccd345f9e5821c084e8853ca721c810cdc1"),
    ("preset watermelon --k 2 --n 10 --u 1,5 --v 1,5",
     "18c2a3287e4d062d2c8a5a0b8e15e0b156af90eb1746aff5329f2f10edaa2b5f"),
    ("preset star --k 3 --n 20 --u 1,3,7",
     "7db0f68eca53bac6e2700355acd9c7a0554c4d6d44cef92ff35837dd768ff4b6"),
    ("verify --seed 7",
     "adc79adbd5d4b7698e4680c78d86dbb02ec813e1de66a14894486bbae3361e23"),
    ("verify --suite dsin,signs --seed 3",
     "adea402be98f9053a563c563aaf2a7cca12eac4d585d3f44fbc739ee87817890"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_unchanged(command, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "chamberwalk.cli", *command.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    seen = json.dumps([proc.returncode, proc.stdout, proc.stderr])
    assert hashlib.sha256(seen.encode()).hexdigest() == digest, seen[:500]


def test_leading_order_at_k500_is_unchanged():
    """The end-point factor of u = v = (1, ..., 500), 124 750 factors a point, is under the
    budget and is multiplied as a balanced tree, so the estimate prints within 10 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    point = ",".join(map(str, range(1, 501)))
    proc = subprocess.run([sys.executable, "-m", "chamberwalk.cli", "asym", "--kind", "axis",
                           "--k", "500", "--weights", "0,1", "--u", point, "--v", point,
                           "--n", "10"], env=env, capture_output=True, text=True, timeout=10)
    seen = json.dumps([proc.returncode, proc.stdout, proc.stderr])
    assert hashlib.sha256(seen.encode()).hexdigest() \
        == "df943882ff2952da906c7720f93df4e4ec23485b50b8c347e36e91d904e97680", seen[:500]
