"""Golden `--out` files of seeded CLI runs.

Each case runs `permutons` in-process with `--out` and compares the SHA-256
of the written file with a digest recorded from an earlier release of the
package.  The cases cross the exact size limits, the flat-grid density
formula, the defect rule and the search score, so a refactor of any of them
that changes one output byte fails here.  The digests are never regenerated
to make a change pass: a differing digest means the output changed.
"""

import hashlib

import pytest

from permutons.cli import main

from conftest import FIXTURES

TAU12 = "5 11 2 8 12 1 7 3 10 4 9 6"
# a seeded order-200 permutation (numpy default_rng(2026), first draw)
TAU200 = (
    "55 94 199 3 120 61 48 183 17 112 170 115 138 11 113 87 88 34 23 164 10 "
    "20 78 18 188 155 91 32 63 187 106 118 74 151 51 69 129 90 161 12 145 "
    "82 83 99 49 174 39 125 13 146 134 52 45 117 56 84 75 97 19 141 159 144 "
    "142 60 71 58 77 79 143 173 190 127 176 15 148 195 185 86 2 160 85 81 "
    "123 16 175 132 162 189 167 6 95 102 105 137 200 8 149 193 26 197 4 36 "
    "72 180 181 35 30 182 9 166 135 172 62 178 191 29 59 139 177 156 73 68 "
    "42 31 147 153 124 126 154 47 131 64 100 22 111 122 110 44 103 158 53 "
    "57 107 70 40 109 33 108 121 38 65 76 136 168 101 92 128 157 165 7 184 "
    "89 46 130 66 140 196 133 194 119 150 152 43 186 28 67 21 37 54 98 1 25 "
    "114 179 50 14 163 80 24 169 198 93 41 27 96 116 104 192 5 171"
)
BALANCED9 = str(FIXTURES / "balanced9.permuton")
FLAT2 = str(FIXTURES / "flat2.permuton")
WINDOW = str(FIXTURES / "window_half.permuton")
PERM40 = str(FIXTURES / "perm40.permuton")
AVG12 = str(FIXTURES / "avg12.permuton")
NU_BLEND = str(FIXTURES / "nu_blend.permuton")
TENT = str(FIXTURES / "tent.permuton")
MC = ("--mode", "mc", "--samples", "20000")

CASES = {
    "densities-4": ("densities", "4", TAU12),
    "densities-4-tau200": ("densities", "4", TAU200),
    "densities-5": ("densities", "5", TAU12),
    "densities-6": ("densities", "6", TAU12),
    "density-exact": ("density", "1 3 2", TAU12),
    "density-mc": ("density", "1 3 2", TAU12, *MC),
    "density-mc-tau200": ("density", "1 3 2", TAU200, *MC),
    "symmetry-balanced9-3": ("symmetry", BALANCED9, "3"),
    "symmetry-balanced9-4": ("symmetry", BALANCED9, "4"),
    "symmetry-perm40-4": ("symmetry", PERM40, "4"),
    "symmetry-flat2-3-csv": ("symmetry", FLAT2, "3", "--format", "csv"),
    "symmetry-flat2-4-csv": ("symmetry", FLAT2, "4", "--format", "csv"),
    "symmetry-window-3-mc": ("symmetry", WINDOW, "3", *MC),
    "symmetry-window-4-mc": ("symmetry", WINDOW, "4", *MC),
    "symmetry-window-5-mc": ("symmetry", WINDOW, "5", *MC),
    "symmetry-window-6-mc": ("symmetry", WINDOW, "6", *MC),
    "sample-window-5": ("sample", WINDOW, "5", "20", "--seed", "7"),
    "inflatable-balanced9-3": ("inflatable", "4 3 8 9 5 1 2 7 6", "3"),
    "search-inflatable-6-3": ("search-inflatable", "6", "3"),
    "integrals-balanced9": ("integrals", BALANCED9),
    "integrals-flat2": ("integrals", FLAT2),
    "integrals-perm40": ("integrals", PERM40),
    "integrals-avg12": ("integrals", AVG12),
    "chain-balanced9": ("chain", BALANCED9),
    "chain-flat2": ("chain", FLAT2),
    "chain-perm40": ("chain", PERM40),
    "chain-avg12": ("chain", AVG12),
    "identity-balanced9": ("identity", BALANCED9),
    "identity-flat2": ("identity", FLAT2),
    "identity-avg12": ("identity", AVG12),
    "permuton-density-exact": ("permuton-density", "2 1 3", BALANCED9),
    "permuton-density-mc": ("permuton-density", "2 1 3", WINDOW, *MC),
    "permuton-density-mc-perm40-4": ("permuton-density", "2 4 1 3", PERM40, *MC),
    "permuton-density-mc-nu-blend-4": ("permuton-density", "2 4 1 3", NU_BLEND, *MC),
    "find-b": ("find-b",),
    "find-nu": ("find-nu",),
    "check-marginals-window": ("check-marginals", WINDOW),
    "check-marginals-nu-blend": ("check-marginals", NU_BLEND),
    "check-marginals-avg12": ("check-marginals", AVG12),
    "check-marginals-tent-7": ("check-marginals", TENT, "--resolution", "7"),
}

GOLDEN = {
    "check-marginals-avg12":
        "e16c095f0bc8fc308c01ed844c7b4ed3dd70ed0e760186b57e5736c4bad7a921",
    "check-marginals-nu-blend":
        "e16c095f0bc8fc308c01ed844c7b4ed3dd70ed0e760186b57e5736c4bad7a921",
    "check-marginals-tent-7":
        "461a5119d37af50851055b3c84a37cb4be4e092b44f00f5ee33966b18de64cd6",
    "check-marginals-window":
        "e16c095f0bc8fc308c01ed844c7b4ed3dd70ed0e760186b57e5736c4bad7a921",
    "chain-avg12":
        "4d95211839d57625fdc42833c1ff641220b5fa6ab1ebc6eb5970b830c548f7ed",
    "chain-balanced9":
        "13079a31db5f513b02f89cb8c19bff01b649c23c6bea90f78318f14afa91a60e",
    "chain-flat2":
        "9d8b41e5f9932215e95f365b7f29936abcc18b9899bc12cf0a25fe7ff29ce973",
    "chain-perm40":
        "944c74d5e84f033a2e63b371067fc6bfceaaa5d33151636e6b8f5282f0efb82c",
    "densities-4":
        "c6b64ad99db107d99f3c665838723e5e77ecd789d30d724026471e1dddac1825",
    "densities-4-tau200":
        "ff61c7f74e0340d08bb90becb7f4cb7da73d3573a9d0c25264d995c939338896",
    "densities-5":
        "48cd148976e63c9cdb9a7dbe0d6db85ae816c27553d8b37456b2bf396fcabc43",
    "densities-6":
        "6e70404955d81b2811f287fe28b0d28f16aee375aa1cf9d0df5b8a141b69fd2b",
    "density-exact":
        "2609f191efb9a8c056764a757dd413c9793e416e452e27fd44dc99068abf544e",
    "density-mc":
        "ea0d6923298c2e0cb8848081f88c4e4e82416e9ded35dc846232e84008a9aa04",
    "density-mc-tau200":
        "c113b80e88fe62dbb9572dda38393235b6edafd1b610805d3ad180f16ad35a36",
    "find-b":
        "b49ffd99771c98dcfe08973e26a8022e8d048bb77a781da37807e9e81b35fb34",
    "find-nu":
        "460290c5e1af6b2671a6aa4b6e0fbced04f80615b1130f218039bd9bcaef6322",
    "identity-avg12":
        "c593dcb8640ef639499f78daf774e5abc15f82b493f46c24be5230adfce9e693",
    "identity-balanced9":
        "8c0eea0214b32157346354f938da825f6e53691dbaed7638e20bbfea2af2406a",
    "identity-flat2":
        "5b72efd8d218d763b273369d458029b5c01b26169c418aecc75807b4a7656d17",
    "inflatable-balanced9-3":
        "fc085b059489dff3dd8dd156b6b0b3460e257759bed0624562b9a28415e78b6d",
    "integrals-avg12":
        "7b4563ca4d48c92a06bc6b54b5a5e0f7eca7c8cbbb4e5b17bc43ecf4cb1b9750",
    "integrals-balanced9":
        "e7bd648f837e26f81e0892be2b4c2a23abff646e7a89e0e736da78d796d045d7",
    "integrals-flat2":
        "67fb00629ba1ea3f9e9da69e16ae1002a499316565d15a2403fa373ceba226d2",
    "integrals-perm40":
        "91d76b6921ca216f43b308d76d8e769ec1cde98bf8e10ae2b230fed8f4ac1a3f",
    "permuton-density-exact":
        "0702b4bb4f22a8e4fc26d11ffda9bc755ef93f5ec8a4bf8f4ddf7433b3edfb5d",
    "permuton-density-mc":
        "ba2d0b3e41e9e07a09cc91839fc0d0b1dc7a3b833f0b44e95c5222c05d44655c",
    "permuton-density-mc-nu-blend-4":
        "164ce1db03847bc284ed2b7e692e041ab85c2c42585af92d5b4beb7d3fda6306",
    "permuton-density-mc-perm40-4":
        "5a59cbf5e49873ed71e53dd957188962a28cfc67b9b365bee3d08fe7c10d30a9",
    "sample-window-5":
        "2a2fc74d5a853c3adf59c5456b9665868133f35c0d062b295d10f536d176ff87",
    "search-inflatable-6-3":
        "d950b4e86f37941c3520e2f6072e72fac7dd04015e53cf27644030cfef1c1216",
    "symmetry-balanced9-3":
        "ea36f7c6e5d99c042880002610b8b820e04acc66f5f65294d3df49a6d9711fe9",
    "symmetry-balanced9-4":
        "a3b27fac4182c3828a9ba5f903cea12d7464c58dc8ffb5e31e4fda439e2343ab",
    "symmetry-flat2-3-csv":
        "b02a5eef69afe61382a6e5fac98f1814f37e47cd87d4222f82346d49c89ab616",
    "symmetry-flat2-4-csv":
        "c77ba41eb45eb4a1ebbe2e3faa8e8e079b8a2b1528e0e8c6afc9ba6db646feab",
    "symmetry-perm40-4":
        "4503c6c0a0e0fc360c498f037861108768c467f5cac41e756b6b66abbbbbb424",
    "symmetry-window-3-mc":
        "825575de39d7a7062c9e694814b912b5d64517b925b3a9a5b6e91f1a3da5e4db",
    "symmetry-window-4-mc":
        "4e0aca86e83a61baababd1ea2ef0f40f342d7ac9b073ff3e6388d2f5b58c5723",
    "symmetry-window-5-mc":
        "cf3846febbf31b82737ecb211768d242b9095ccc644802150ee30d97bedfe4d5",
    "symmetry-window-6-mc":
        "1dc64bd6ac95dd1cc9184a245f7bad6f1beac1ca2203a3ff50b889a2cc13afbe",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_golden_digest(name, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main([*CASES[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


def test_oversized_exact_density_is_refused_without_output(tmp_path, capsys):
    out = tmp_path / "out.txt"
    tau = " ".join(map(str, range(1, 62)))
    assert main(["density", "1 2 3 4 5", tau, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_failing_check_marginals_prints_its_worst_strip(tmp_path, capsys):
    # the y marginal of this segment has density 2 on [0, 1/2]: every one of
    # the first 50 y-strips deviates by 1/101, and the first one is reported
    bad = tmp_path / "bad.permuton"
    bad.write_text("type segments\nsegment 0 0 1 0.5\n")
    assert main(["check-marginals", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "resolution = 101",
        "max_deviation = 0.00990099009901",
        "worst_strip = y[0]",
        "pass = False",
    ]
    assert captured.err == ""
