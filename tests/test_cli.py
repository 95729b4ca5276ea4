import hashlib
import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from thorntrees import bijection, structures
from thorntrees.bijection import psi, psi_inverse
from thorntrees.cli import main
from thorntrees.counting import count_A
from thorntrees.structures import deserialize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "A", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition,value,provenance"
    assert "4^1,6,formula" in lines
    assert "1^4,1,formula" in lines


def test_table_json_and_stability(capsys):
    code, out1, _ = run(capsys, "table", "C", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out1)
    assert obj["family"] == "C" and obj["n"] == 5
    code, out2, _ = run(capsys, "table", "C", "5", "--format", "json")
    assert out1 == out2  # byte-stable stdout


def test_table_B_parity(capsys):
    code, out, _ = run(capsys, "table", "B", "4", "--parity", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    labels = [r[0] for r in rows]
    # only even-length partitions of 4 remain
    assert labels == ["1^1 3^1", "2^2", "1^4"]


def test_table_stirling(capsys):
    code, out, _ = run(capsys, "table", "stirling", "4")
    assert code == 0
    assert "4,2,11,formula" in out.splitlines()


def test_table_oracle_agrees_with_formula(capsys):
    _, formula, _ = run(capsys, "table", "D", "5")
    _, brute, _ = run(capsys, "table", "D", "5", "--oracle")
    strip = lambda s: [line.rsplit(",", 1)[0] for line in s.splitlines()]
    assert strip(formula) == strip(brute)


def test_table_refusal(capsys):
    code, out, err = run(capsys, "table", "C", "9", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err


def test_table_oracle_default_budget_per_family(capsys):
    # C and D are read off the S_n sweep, so they share A's budget of 8;
    # test_table_refusal covers C 9
    code, out, err = run(capsys, "table", "D", "9", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err
    code, out, _ = run(capsys, "table", "C", "8", "--oracle")
    assert code == 0
    assert "8^1,40320,oracle" in out.splitlines()
    code, out, _ = run(capsys, "table", "A", "8", "--oracle")
    assert code == 0
    assert "8^1,5040,oracle" in out.splitlines()


def test_table_B_oracle(capsys):
    _, solver, _ = run(capsys, "table", "B", "6")
    code, brute, _ = run(capsys, "table", "B", "6", "--oracle")
    assert code == 0
    assert brute == solver.replace(",solver", ",oracle")
    code, out, err = run(capsys, "table", "B", "9", "--oracle")
    assert code == 2
    assert out == ""
    assert "refused" in err


def test_table_Bprime_oracle(capsys):
    _, solver, _ = run(capsys, "table", "Bprime", "7", "--format", "json")
    code, brute, _ = run(capsys, "table", "Bprime", "7", "--oracle",
                         "--format", "json")
    assert code == 0
    assert json.loads(brute)["provenance"] == "oracle"
    assert json.loads(brute)["rows"] == json.loads(solver)["rows"]
    code, out, _ = run(capsys, "table", "Bprime", "7", "--oracle",
                       "--budget", "6")
    assert code == 2
    assert out == ""


def test_verify_zagier(capsys):
    code, out, err = run(capsys, "verify", "zagier", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert all(it["ok"] for it in rep["items"])
    assert "wall time" in err and "wall" not in out


# sha256 of the stdout of `verify zagier 30`, captured while solve_B still
# divided over the rationals and the CLI re-made the Zagier comparison
ZAGIER_30_STDOUT_SHA256 = (
    "aaed794011d75e16c21e8472a4f4aa081f4abf3c2482b8b854892f26f41fe2c5")


def test_verify_zagier_30_stdout_pinned(capsys):
    code, out, _ = run(capsys, "verify", "zagier", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZAGIER_30_STDOUT_SHA256


def test_verify_bijection(capsys):
    code, out, _ = run(capsys, "verify", "bijection", "4")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# sha256 of the stdout of `verify identities n`, as printed when the p<->m
# transitions were still built by multiplying out power sums and inverting
# the matrix: the counting rewrite must keep every byte.
IDENTITIES_STDOUT_SHA256 = {
    1: "fd8cf814a466918d5e69691a70f0a269f2cde00e1a5a92e35cc404f08633f51f",
    2: "d8b08139f1668155f011029b324b5e5418c6069c00f9cd8cb854d0160fc821aa",
    3: "a82008956e3749dff0b5e12317bcae9a7b3b61e9b02a0f8177a1062c9eaf7db8",
    4: "6a0c3f6be16aa44e208ce8f2753ed5273ba2caea6b2e4a12f5de4672c59537e8",
    5: "9caf1cf6f875a8899430f6244566157f57a1b5519807e2969106c96fab8f8fd4",
    6: "4b72c8807b4bd26fcc2387398e5afdf46f59a59bfc1b4495415bcaed4f74c13d",
    7: "a681842c98b18e5297c4d2406c2c27b0cb28f53901257a98428e5fe2bb1dd442",
    8: "08a62e3860c428c7dd20c00b5bd8180b550bf3f22195cb42af1d095bf61f3110",
    9: "81810f90a6bfce19b2ae06f6d30b222cbedf248b1eda36f1cf692c4e745a286c",
    # captured while the transitions still summed Fraction coefficients
    10: "c35beefca9f18aecb0053251b6262aa745a8d46194d2ccf1f819a393879da8d0",
    11: "9886fe8f957b4ca27d10960ec3f25d1833bc58384ee3c28bed686e6d668d358f",
    12: "1f47e5200289933da428e98c974efbf857c72bb9ed5f97027e975bebfe14d255",
}


@pytest.mark.parametrize("n", sorted(IDENTITIES_STDOUT_SHA256))
def test_verify_identities_stdout_pinned(capsys, n):
    code, out, _ = run(capsys, "verify", "identities", str(n))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == IDENTITIES_STDOUT_SHA256[n]


# sha256 of the stdout of the bijection and proportions suites, as printed
# when their sweeps still re-validated every enumerated object and ran
# the inverse self-check on every tree: the sweeps on trusted objects
# must keep every byte.
SWEEP_STDOUT_SHA256 = {
    "verify bijection 1":
        "e4e33cc327db41db9ce9d8426b93665f9ede7c741ad29a1ade825d03ce1f7388",
    "verify bijection 2":
        "3ec7c474dfb0ae5f5ece5c5aa7c34dc9570df4608ae1408fbd633d4af6016ec8",
    "verify bijection 3":
        "ec5c900666f46c834a08431cdc88d5a642dd48d45458e2e3e824a6b3ea2a27af",
    "verify bijection 4":
        "8975251e7984f311f0557faf7574fb2e6b89bbbda0adfe43d57ca2214b749bca",
    "verify bijection 5":
        "0896362dd52e090b7f13dbdf2d98dfd7f93723e488343168140ace4d89eb48f7",
    "verify bijection 6":
        "c10685d9f4d2c1faadae6db9487add44e2d9aad5f464fb87691b81d7d9ba47d0",
    "verify bijection 6 --budget 6":
        "c10685d9f4d2c1faadae6db9487add44e2d9aad5f464fb87691b81d7d9ba47d0",
    "verify bijection 7 --budget 7":
        "ed4c4112a26df748345f04b1139722ee92c6b13c914988727566ebd3e692de4d",
    "verify proportions 1":
        "5bb1cc2a1c6fefe1675ad388108a084b8e279ee7e915d27bfa28d582a94722dc",
    "verify proportions 2":
        "596cd8af2e357d5d447b142d6bbd947f7f5779364e932cba4b90858efabacdad",
    "verify proportions 3":
        "c186ca94d2733c757a43198efc30e316c26ec489942991eeeeb275fd678621a5",
    "verify proportions 4":
        "8fdc87c6c70320b59e4100fbfc0fb62aa91e56f3daae989714cb079c7b22d75a",
    "verify proportions 5":
        "85b277543d93cc80e9bd0640c9e87bbf6eefcd7a76533b7e96af9a8210d02369",
    "verify proportions 6":
        "d819dd26ed07b432a9531a9a5387e5b85c2c455b3800cb9f58b5208003f0d486",
    "verify proportions 7 --budget 7":
        "c2d0905c4d88fdeaac548bf9771c0c3c2770441c4f5af9569d7cc14cf96ad036",
    "verify proportions 8 --budget 8":
        "688c473d9371b09fa375611311fbb19784769f786e4d547277910302c7b76e44",
    "verify proportions 8":
        "688c473d9371b09fa375611311fbb19784769f786e4d547277910302c7b76e44",
}


@pytest.mark.parametrize("argv", sorted(SWEEP_STDOUT_SHA256))
def test_verify_sweep_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SWEEP_STDOUT_SHA256[argv]


# (exit code, sha256 of stdout) of `transform psi|invert|classify` on each
# fixture; invert and classify were captured alongside SWEEP_STDOUT_SHA256,
# psi when the forward map still built alpha by composition.  example21 is
# the only map, so psi refuses the two trees and the other directions
# refuse example21, each with an empty stdout.
TRANSFORM_STDOUT_SHA256 = {
    ("psi", "ex1.json"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psi", "example21.json"): (
        0, "f7542123c7e8570a7e2feb6dfb14dcde83dd54ae0a2c6c89bfb95e047913e6ef"),
    ("psi", "selfloop4.json"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("invert", "ex1.json"): (
        0, "4f27d8a41bec62bbed4c42f82568087f5b3b2e6dac8a09b2a459877d3737342d"),
    ("invert", "example21.json"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("invert", "selfloop4.json"): (
        0, "1454c65fe0b35de2f8b918a31ad9bbd280b675cbebd52fbcb492f84edf755aa7"),
    ("classify", "ex1.json"): (
        0, "adc1f0e4b08f31d62debcda025a61d17d7010aa582b75b57a43f4e41bddedd2b"),
    ("classify", "example21.json"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("classify", "selfloop4.json"): (
        0, "86dcce3bcfe29881c388544496d38791d2a76a496d650a40ac1051e123951842"),
}


@pytest.mark.parametrize("direction,name", sorted(TRANSFORM_STDOUT_SHA256))
def test_transform_stdout_pinned(capsys, direction, name):
    code, out, _ = run(capsys, "transform", direction, str(FIXTURES / name))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == TRANSFORM_STDOUT_SHA256[direction, name]


# (exit code, sha256 of stdout) of `export-dot [--aux]` on each fixture,
# captured when map_to_dot still filtered beta's cycles once per block;
# example21 is a map, so --aux refuses it with an empty stdout.
EXPORT_DOT_STDOUT_SHA256 = {
    ((), "ex1.json"): (
        0, "16a164ecc84cc99bf875612d0d93994c34c4e5028d518d89674efcf020f7e887"),
    ((), "example21.json"): (
        0, "82ec2466291374a8ea77fc7298b715f2bf07c40d0c7915eff8409f2547104afd"),
    ((), "selfloop4.json"): (
        0, "7acae83dfdc89bf4c478fe89e26272e1c0f0ede2ba0b277eb21a7bd7b16ea1f9"),
    (("--aux",), "ex1.json"): (
        0, "646b823e60a24fb289c5387442d37c6d31b79ebfd5615641ccd11e755f19bc6a"),
    (("--aux",), "example21.json"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("--aux",), "selfloop4.json"): (
        0, "243f4bc94040e4fcdb0450af2fdffbb4635ada7a0c6d530758ad9cb18f87aeda"),
}


@pytest.mark.parametrize("flags,name", sorted(EXPORT_DOT_STDOUT_SHA256))
def test_export_dot_stdout_pinned(capsys, flags, name):
    code, out, _ = run(capsys, "export-dot", *flags, str(FIXTURES / name))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == EXPORT_DOT_STDOUT_SHA256[flags, name]


# (exit code, sha256 of stdout) of `table`, captured while `--parity`
# still had its own CSV/JSON printer.
TABLE_STDOUT_SHA256 = {
    ('A', '6'): (
        0, "855f446946a552ce17fcb0beb090249e28e4d7385fe8d7423331b992a1c5079d"),
    ('A', '6', '--parity', '0'): (
        0, "b15f62c1da5abe89f9a7c6711c15da6405fdf30c0df67af7364d9a75f56b56ad"),
    ('A', '6', '--parity', '1'): (
        0, "46a76dcf3d0da9c2b09c63a537a7c37ae5d57fc733ec0bdb15cc0c9517966167"),
    ('A', '6', '--format', 'json'): (
        0, "0f6c30b47e51b93b6db7192af205f257a535731ffd2d9f81c7c2ab83d0a9af94"),
    ('A', '6', '--format', 'json', '--parity', '0'): (
        0, "c6c21bae0a2cf1243539f2d4ba25537f897e11b9fd937883a232f9082cfe09bc"),
    ('A', '6', '--format', 'json', '--parity', '1'): (
        0, "9daf07994e26f2075b9323a9d8384127745ffe28d3594a5f8dc7feffe7586b5a"),
    ('B', '6'): (
        0, "cbfac3a878e75140d224099f1d2fea2c32b1c77d61944ed54f1344f8cfcfd029"),
    ('B', '6', '--parity', '0'): (
        0, "6b1a5b0489597712813613931058b322a450f107c585025e9d7b2ff70ec7ec4c"),
    ('B', '6', '--parity', '1'): (
        0, "d0a79eb507ac4296addcd487f36e69b79f558e7e5502dc46d523f7937fab3d93"),
    ('B', '6', '--format', 'json'): (
        0, "7de368c148fd03fcf340f92ca7e1f675484e8a093f4192d02d2124a8ce0d7085"),
    ('B', '6', '--format', 'json', '--parity', '0'): (
        0, "35abd51e22ed53f5524e1671e04b667c74d1b71f6322061cde71620643a49024"),
    ('B', '6', '--format', 'json', '--parity', '1'): (
        0, "f63a95c3a401b95490305405f974cc690061ad063720f8c7bb9de7f16cbd61cd"),
    ('C', '6'): (
        0, "f50f5a12467e177443423b8db6d273ff2c77b89f80c4467ef438d186ff82ea30"),
    ('C', '6', '--parity', '0'): (
        0, "3b71a7e19d141129a1555b9f6fc111b66557f390aeda5d22b4635e1c89650233"),
    ('C', '6', '--parity', '1'): (
        0, "c4645a452c290eb0c1b82a4688057910dc5faa470fa8b1fe37c4d5b55c2d0d51"),
    ('C', '6', '--format', 'json'): (
        0, "1d59ae6757737468c98860428b235eaea31519f1bd9e5dd4511046b9dabe48de"),
    ('C', '6', '--format', 'json', '--parity', '0'): (
        0, "d99d388df38815a360627740485c6596eae29caa601b49b19ae572d9186d6ab6"),
    ('C', '6', '--format', 'json', '--parity', '1'): (
        0, "383b25c4b573cb8b93b37384245209d2ef97f96dd15d0ca87d60453ec9c238d8"),
    ('D', '6'): (
        0, "97b04d6475a2356d4321f000fa554e5f68815dfb67495da9c07bb696126c58bb"),
    ('D', '6', '--parity', '0'): (
        0, "92dbdf9619344e1dacac649a032456038a24971dcf523c4630898264e738e746"),
    ('D', '6', '--parity', '1'): (
        0, "6300b22010709f796d0a8402f9142494d612cb0991ca6a2e228450e44f548f74"),
    ('D', '6', '--format', 'json'): (
        0, "9cf13da8ca9167042b43b628229db12f9757e88cb1c2da89d8f0c1659f94bb2a"),
    ('D', '6', '--format', 'json', '--parity', '0'): (
        0, "4ec90c5618a37204d80772877736414256c270b8b575e3912c5d72bfb13a7150"),
    ('D', '6', '--format', 'json', '--parity', '1'): (
        0, "ddad37e6f5bbeeca23d659cb07e513f7752bfefb825b65e2904db5e4b394f9e7"),
    ('ST', '6'): (
        0, "f0ca1b88d477835f16ee6e51297dd34d6ca9cd857d8fcbf944d501ba06772da3"),
    ('ST', '6', '--parity', '0'): (
        0, "3d360ec939ce46d5518ce0c2bb3a65dc6fc5936e67cdc1d47acc836c65fa4972"),
    ('ST', '6', '--parity', '1'): (
        0, "b2835784be63faf70e731eee133aaaf4963ac220ff810aeb1c75561823d299b5"),
    ('ST', '6', '--format', 'json'): (
        0, "635aecd1b4c2ce9b288d83a0673e45283f97518f3843b2f6fea23d035351ffeb"),
    ('ST', '6', '--format', 'json', '--parity', '0'): (
        0, "3da77ab4eb93a04699ff4c9b01325b034b4f4c931c3c6545b0939a24c374fcaf"),
    ('ST', '6', '--format', 'json', '--parity', '1'): (
        0, "67f48fa973d6997161083d95e3fb97bfe30e35868103b1feaa6baa43b9860faf"),
    ('B', '7', '--oracle', '--budget', '7', '--parity', '1'): (
        0, "3a4a79970ddeaec1e94e0061bf9f929f7ffdd6777637eb4e6fa21fadc2d7e18a"),
    ('A', '0', '--parity', '0'): (
        0, "71a1c90752b40f2201d77e31b0cd62eeff9eb8694058df30e2ea51aa03aa162e"),
    ('B', '8'): (
        0, "62c93c3ad634e334e35ac73240b065c74b4d63f2c0145b8320fb4d1ed842ce1a"),
    # captured while the ST oracle counted compositions, not built trees
    ('ST', '0', '--oracle', '--budget', '9'): (
        0, "40c33b594a7a3124dd97b018404d3f5125e13ffe67a51fcb11474b459e914f95"),
    ('ST', '1', '--oracle', '--budget', '9'): (
        0, "911b7c7d52edacd03bf794dd1c3baaee2f2cac0baf71c20f7494da76916c120a"),
    ('ST', '2', '--oracle', '--budget', '9'): (
        0, "dfe8e8c5ce80634d96c61021db80cd590dc57bc50fc9a9a693c5095b54fbd983"),
    ('ST', '3', '--oracle', '--budget', '9'): (
        0, "4e1fdc0a80706d68d67a5a862450d051f21a1713793df26b9b593f8264e17b4e"),
    ('ST', '4', '--oracle', '--budget', '9'): (
        0, "ee47bbe83ddf45dafcceb92869acb67714b9104c1b0c99646a15834be263e459"),
    ('ST', '5', '--oracle', '--budget', '9'): (
        0, "a074b7c36aa6b55dd76d0cb7b73a0b30cc079d172a17ab271834c743c1dc7836"),
    ('ST', '6', '--oracle', '--budget', '9'): (
        0, "c8e4c51601a36e4c8a588c4230926d6901a0bf04f542c831f221931601bdf6e9"),
    ('ST', '7', '--oracle', '--budget', '9'): (
        0, "901da1d999be2d1f9b5b2c2d60c0d498075a30b2f4f48c7c3b3c7e2189b74318"),
    ('ST', '8', '--oracle', '--budget', '9'): (
        0, "99416c09f6e80e3ffa119aa1e7c0a68bd160c391a2ecd7448f7652161cce4245"),
    ('ST', '9', '--oracle', '--budget', '9'): (
        0, "3457dc0a1a3ba59de882432ccd7c851703226c557d904f415a5a23c4f06d7ea0"),
    # captured while solve_B still divided over the rationals
    ('B', '30'): (
        0, "4d37d14b39c18d6786afa0d1396c5a969697c50e61fff9cf1307dae4a44ba5dc"),
    ('B', '30', '--format', 'json'): (
        0, "6e592019958bbd73b3438711cc64bce69d1c28386d1b57a58c0998ae799a7a15"),
    ('Bprime', '30'): (
        0, "ed28bd319d1d522d62886177e352cdc59892a636a45827d95ad49e9bae117ddb"),
    ('Bprime', '30', '--format', 'json'): (
        0, "2881aad873636e7fe12344e81ead1034decaf4a17137a543c64177967c8fbf86"),
}


@pytest.mark.parametrize("argv", sorted(TABLE_STDOUT_SHA256))
def test_table_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, "table", *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == TABLE_STDOUT_SHA256[argv]


ZAGIER_41_REFUSED = """{
  "command": "verify zagier 41",
  "items": [],
  "reason": "n=41 exceeds solver limit 40",
  "status": "refused"
}
"""

# (exit code, stdout, stderr lines but "wall time:") of each command that
# the solver limit refuses, as printed before the three limit checks
# shared one refusal.
SOLVER_LIMIT_REFUSALS = {
    ("table", "B", "41"): (
        2, "", ["refused: n=41 exceeds solver limit 40"]),
    ("table", "Bprime", "41"): (
        2, "", ["refused: n=41 exceeds solver limit 40"]),
    ("table", "Bprime", "41", "--format", "json"): (
        2, "", ["refused: n=41 exceeds solver limit 40"]),
    ("verify", "zagier", "41"): (2, ZAGIER_41_REFUSED, []),
}


@pytest.mark.parametrize("argv", sorted(SOLVER_LIMIT_REFUSALS))
def test_solver_limit_refusals_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    err = [line for line in err.splitlines()
           if not line.startswith("wall time:")]
    assert (code, out, err) == SOLVER_LIMIT_REFUSALS[argv]


def test_transform_psi_of_an_empty_map_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"beta":[],"n":0,"pi":[]}')
    code, out, err = run(capsys, "transform", "psi", str(path))
    assert (code, out, err) == (2, "", "error: n must be >= 1\n")


@pytest.mark.parametrize("suite", ["bijection", "identities", "proportions",
                                   "reformulation", "zagier"])
def test_verify_n_0_is_a_usage_error(capsys, suite):
    code, _, err = run(capsys, "verify", suite, "0")
    assert code == 2 and err.startswith("error: ")


def test_verify_refusal(capsys):
    code, out, _ = run(capsys, "verify", "proportions", "9")
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "refused" and rep["items"] == []
    assert rep["reason"] == ("permuted-tree enumeration refused: "
                             "n=9 exceeds budget 8")


def test_transform_psi_and_invert(tmp_path, capsys):
    code, out, _ = run(capsys, "transform", "psi",
                       str(FIXTURES / "example21.json"))
    assert code == 0
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)
    code, out2, _ = run(capsys, "transform", "invert", str(tree_file))
    assert code == 0
    rep = json.loads(out2)
    assert rep["status"] == "success"
    assert rep["map"]["beta"] == [1, 5, 7, 4, 2, 6, 3]


def test_transform_classify(capsys):
    code, out, _ = run(capsys, "transform", "classify",
                       str(FIXTURES / "selfloop4.json"))
    assert code == 0
    assert json.loads(out)["kind"] == "cycle"


def test_transform_contract(tmp_path, capsys):
    code, out, _ = run(capsys, "transform", "psi",
                       str(FIXTURES / "example21.json"))
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(out)
    t = deserialize(out)
    from thorntrees.bijection import aux_graph
    g = aux_graph(t)
    marked = next(b for b in range(t.tree.p)
                  if b != g.root and g.out[b] != b)
    code, out2, _ = run(capsys, "transform", "contract", str(tree_file),
                        "--mark", str(marked))
    assert code == 0
    rep = json.loads(out2)
    assert "tree" in rep and "marked_element" in rep


# (exit code, sha256 of stdout) of `transform contract --mark b` for every
# b from -1 to p, captured when contract re-derived every slot, black and
# thorn coordinate by hand; psi(example21.json) is the tree that
# `transform psi` prints for that map.
CONTRACT_STDOUT_SHA256 = {
    ("ex1.json", -1): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ex1.json", 0): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ex1.json", 1): (
        0, "f36b78e2c30b6ef81be4f2cba50153be4c07ced69c45cd853744c8b1b6d9db08"),
    ("ex1.json", 2): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("selfloop4.json", -1): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("selfloop4.json", 0): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("selfloop4.json", 1): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("selfloop4.json", 2): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psi(example21.json)", -1): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psi(example21.json)", 0): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psi(example21.json)", 1): (
        0, "c221fe6b0b98ff78e7fc35f41974f979d5dee2a860ba160f43388b694e67334d"),
    ("psi(example21.json)", 2): (
        0, "8c659335dc4b6e1dd478b116ef014616ec7b32e518f8d53777303410cd7d2d4c"),
    ("psi(example21.json)", 3): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("name,mark", sorted(CONTRACT_STDOUT_SHA256))
def test_transform_contract_stdout_pinned(tmp_path, capsys, name, mark):
    path = FIXTURES / name
    if name == "psi(example21.json)":
        path = tmp_path / "tree.json"
        path.write_text(structures.serialize(psi(deserialize(
            (FIXTURES / "example21.json").read_text()))) + "\n")
    code, out, err = run(capsys, "transform", "contract", str(path),
                         "--mark", str(mark))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) \
        == CONTRACT_STDOUT_SHA256[name, mark]
    assert err.count("\n") == (code != 0)


def test_transform_contract_requires_mark(capsys):
    code, _, err = run(capsys, "transform", "contract",
                       str(FIXTURES / "ex1.json"))
    assert code == 2 and "--mark" in err


def test_export_dot(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    code, _, _ = run(capsys, "export-dot", str(FIXTURES / "ex1.json"),
                     "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") or text.startswith("graph")
    code, out, _ = run(capsys, "export-dot", str(FIXTURES / "ex1.json"),
                       "--aux")
    assert code == 0 and "digraph" in out


def test_bad_input_file(capsys):
    code, _, err = run(capsys, "transform", "classify", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "transform", "classify", str(bad))
    assert code == 2 and "line" in err


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("text", [DEEP, '{"beta": %s, "n": 1, "pi": [[1]]}'
                                  % DEEP])
@pytest.mark.parametrize("argv", [["transform", "psi"], ["export-dot"]])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: nested too deeply\n"


def test_usage_error(capsys):
    code, _, _ = run(capsys, "table", "Z", "4")
    assert code == 2


def test_verify_budget_default_per_suite(capsys):
    # every suite's oracle sweeps default to n <= 8: zagier drops its
    # oracle rows above it, the map and tree sweeps are refused
    for n, oracle_rows in ((7, 7), (8, 8), (9, 0)):
        code, out, _ = run(capsys, "verify", "zagier", str(n))
        rep = json.loads(out)
        assert code == 0 and rep["status"] == "pass"
        assert sum(it["provenance"] == "oracle"
                   for it in rep["items"]) == oracle_rows
    code, out, _ = run(capsys, "verify", "bijection", "9")
    assert code == 2 and json.loads(out)["reason"] == (
        "map enumeration refused: n=9 exceeds budget 8")


@pytest.mark.parametrize("family", ["Bprime", "stirling"])
def test_table_parity_refused_for_m_indexed_families(capsys, family):
    code, out, err = run(capsys, "table", family, "4", "--parity", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _suite_items(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)["items"]


def test_verify_bijection_reports_wrong_inverse(capsys, monkeypatch):
    # every label walk collides at step 1: no tree recovers its map
    monkeypatch.setattr(bijection, "_label_walk",
                        lambda shape, sigma: ([], [], (1, 0, 0)))
    code, items = _suite_items(capsys, "verify", "bijection", "3")
    assert code == 1
    failed = [it["check"] for it in items if not it["ok"]]
    assert "roundtrip 1^1 2^1" in failed
    assert "classify agreement 1^1 2^1" in failed


def test_verify_bijection_reports_unswept_image(capsys, monkeypatch):
    # the sweep walks every tree shape but the first of each type
    every_shape = structures.all_star_thorn_trees
    monkeypatch.setattr(bijection, "all_star_thorn_trees",
                        lambda lam: list(every_shape(lam))[1:])
    code, items = _suite_items(capsys, "verify", "bijection", "3")
    assert code == 1
    roundtrips = [it for it in items if it["check"].startswith("roundtrip")]
    assert roundtrips and all(not it["ok"] for it in roundtrips)
    assert {it["actual"] for it in roundtrips} <= {"None"}


def test_verdict_reading_every_graph_as_an_image_is_caught(capsys,
                                                          monkeypatch):
    # classify and both sweeps reach the one verdict walk: at n = 3 only
    # the type 2^1 1^1 has a (P1) tree whose auxiliary graph has a cycle
    monkeypatch.setattr(bijection, "_verdict", lambda out: None)
    code, items = _suite_items(capsys, "verify", "bijection", "3")
    assert code == 1
    assert [it["check"] for it in items if not it["ok"]] \
        == ["classify agreement 1^1 2^1"]
    code, items = _suite_items(capsys, "verify", "proportions", "3")
    assert code == 1
    assert [it["check"] for it in items if not it["ok"]] \
        == ["P 1^1 2^1", "P' 1^1 2^1"]
    code, out, _ = run(capsys, "transform", "classify",
                       str(FIXTURES / "selfloop4.json"))
    assert (code, out) == (0, '{"kind":"image"}\n')


def test_internal_check_failure_is_exit_1(tmp_path, capsys, monkeypatch):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(structures.serialize(psi(
        deserialize((FIXTURES / "example21.json").read_text()))))
    wrong = deserialize((FIXTURES / "selfloop4.json").read_text())
    monkeypatch.setattr(bijection, "psi", lambda m: wrong)
    code, out, err = run(capsys, "transform", "invert", str(tree_file))
    assert code == 1
    assert out == ""
    assert err == "internal check failed: inverse self-check failed\n"


def test_solver_inconsistency_is_exit_1(capsys, monkeypatch):
    from thorntrees import counting

    monkeypatch.setattr(counting, "count_A",
                        lambda mu: 0 if mu == (3, 2, 1) else count_A(mu))
    code, out, err = run(capsys, "table", "B", "5")
    assert code == 1
    assert out == ""
    assert err == ("internal check failed: negative B(Partition(2, 2, 1)) "
                   "= -5\n")


# ---------------------------------------------------------------------------
# every input file gives exit 0 or 2, never a traceback


def _object_files(tmp_path):
    """The fixtures plus a star thorn tree, a labeled tree and a tree with
    no "n", keyed by name."""
    files = {p.stem: p for p in FIXTURES.glob("*.json")}
    ex1 = json.loads(files["ex1"].read_text())
    star = {k: v for k, v in ex1.items() if k != "sigma"}
    no_n = {k: v for k, v in ex1.items() if k != "n"}
    labeled = structures.to_json_obj(psi_inverse(psi(deserialize(
        files["example21"].read_text()))).labeled)
    for name, obj in (("star", star), ("no_n", no_n), ("labeled", labeled)):
        files[name] = tmp_path / (name + ".json")
        files[name].write_text(json.dumps(obj))
    return files


WRONG_KIND = (
    [(argv, name) for argv in (["transform", "invert"],
                               ["transform", "classify"],
                               ["transform", "contract", "--mark", "1"],
                               ["export-dot", "--aux"])
     for name in ("example21", "star", "labeled", "no_n")]
    + [(["transform", "psi"], name)
       for name in ("ex1", "selfloop4", "star", "labeled", "no_n")])


@pytest.mark.parametrize("argv,name", WRONG_KIND)
def test_wrong_object_kind_is_refused(tmp_path, capsys, argv, name):
    path = str(_object_files(tmp_path)[name])
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if name != "no_n":
        assert "expected a" in err and "found a" in err


COMMANDS = ([["transform", d] for d in ("psi", "invert", "classify")]
            + [["transform", "contract", "--mark", str(b)] for b in (0, 1, 2)]
            + [["export-dot"], ["export-dot", "--aux"]])


def _paths(obj, prefix=()):
    """The key path of every value nested inside a JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


@st.composite
def mangled_fixtures(draw):
    name = draw(st.sampled_from(sorted(p.name for p in
                                       FIXTURES.glob("*.json"))))
    obj = json.loads((FIXTURES / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        if draw(st.booleans()):  # drop a key or a list entry
            del _get(obj, path[:-1])[path[-1]]
        else:  # overwrite it with a copy of a value found elsewhere
            other = _get(obj, draw(st.sampled_from(paths)))
            _get(obj, path[:-1])[path[-1]] = json.loads(json.dumps(other))
    return json.dumps(obj)


@settings(max_examples=100, deadline=None)
@given(mangled_fixtures())
def test_mangled_input_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "obj.json"
        path.write_text(text)
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + [str(path)])
            assert code in (0, 2), (argv, text, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith("error: ")


# a key path to every integer field of each object kind, in the files that
# _object_files writes
INT_FIELDS = (
    [("example21", path) for path in (("n",), ("beta", 0), ("pi", 0, 0))]
    + [("ex1", path) for path in (("n",), ("white", 0, "edge"),
                                  ("blacks", 0, "thorns"), ("sigma", 0, 0),
                                  ("sigma", 0, 1, 0), ("sigma", 0, 1, 1))]
    + [("labeled", path) for path in (("white_labels", 0),
                                      ("black_labels", 0, 0), ("tree", "n"))]
    + [("ex1", ("white", 1, "thorn"))])


@pytest.mark.parametrize("value", [True, 2.5, "2"])
@pytest.mark.parametrize("name,path", INT_FIELDS)
def test_non_integer_fields_are_refused(tmp_path, capsys, name, path, value):
    obj = json.loads(_object_files(tmp_path)[name].read_text())
    _get(obj, path[:-1])[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "export-dot", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: expected an integer, found %s\n" % json.dumps(value)


def test_readme_cli_examples_run(capsys, monkeypatch):
    root = FIXTURES.parent
    text = (root / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("thorntrees ")]
    assert len(lines) >= 10
    monkeypatch.chdir(root)
    for argv in lines:
        code, out, _ = run(capsys, *argv[1:])
        assert code == 0 and out, argv


def test_readme_library_quick_start_runs():
    import os
    import subprocess
    import sys

    root = FIXTURES.parent
    text = (root / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1] \
        .split("```python", 1)[1].split("```", 1)[0]
    assert "psi_inverse" in block
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", block], cwd=root, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_thorn_ranks_out_of_order_are_refused(tmp_path, capsys):
    obj = json.loads((FIXTURES / "ex1.json").read_text())
    obj["white"][1]["thorn"], obj["white"][3]["thorn"] = 1, 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "transform", "classify", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: white thorn rank 1 out of order: expected 0\n"


@pytest.mark.parametrize("argv", [
    ["table", family, "99999999999999999999"] for family in "ACD"])
def test_n_too_large_for_factorial_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


IDENTITIES_REFUSED = """{
  "command": "verify identities %s",
  "items": [],
  "reason": "n=%s exceeds identities limit 20",
  "status": "refused"
}
"""


@pytest.mark.parametrize("n", ["21", "40", "99999999999999999999"])
def test_identities_limit_refusals_pinned(capsys, n):
    """Above the limit the suite is refused before any partition is
    listed; at n = 10**20 it used to stop in factorial with an error line."""
    code, out, err = run(capsys, "verify", "identities", n)
    assert (code, out) == (2, IDENTITIES_REFUSED % (n, n))
    assert err.startswith("wall time:") and err.count("\n") == 1


def test_verify_identities_at_the_limit_passes(capsys):
    code, out, _ = run(capsys, "verify", "identities", "20")
    assert code == 0 and json.loads(out)["status"] == "pass"


# stdout of `verify zagier 8`, captured before the CLI imported its layers
# lazily
ZAGIER_8_STDOUT_SHA256 = (
    "02863795947dbf29a01ea4353e63efea46504398ce487ecfb15e0f1f64d2bf96")

OPTIMIZED_RUNS = [
    (["table", "B", "8"], TABLE_STDOUT_SHA256["B", "8"]),
    (["verify", "zagier", "8"], (0, ZAGIER_8_STDOUT_SHA256)),
    (["verify", "identities", "9"], (0, IDENTITIES_STDOUT_SHA256[9])),
    (["verify", "bijection", "5"],
     (0, SWEEP_STDOUT_SHA256["verify bijection 5"])),
    (["verify", "proportions", "6"],
     (0, SWEEP_STDOUT_SHA256["verify proportions 6"])),
    (["transform", "psi", "fixtures/example21.json"],
     TRANSFORM_STDOUT_SHA256["psi", "example21.json"]),
    (["transform", "invert", "fixtures/ex1.json"],
     TRANSFORM_STDOUT_SHA256["invert", "ex1.json"]),
    (["transform", "classify", "fixtures/selfloop4.json"],
     TRANSFORM_STDOUT_SHA256["classify", "selfloop4.json"]),
    (["export-dot", "--aux", "fixtures/ex1.json"],
     EXPORT_DOT_STDOUT_SHA256[("--aux",), "ex1.json"]),
]


@pytest.mark.parametrize("argv,pinned", OPTIMIZED_RUNS)
def test_stdout_pins_hold_under_python_O(argv, pinned):
    """python -O strips assert statements: the CLI must not depend on
    them.  Only the child runs under -O, so this test's own asserts hold."""
    import os
    import subprocess
    import sys

    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "thorntrees.cli",
                           *argv], cwd=root, env=env, capture_output=True)
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) \
        == pinned
