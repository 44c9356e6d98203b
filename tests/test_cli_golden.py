"""Exact CLI output on small fixed inputs, recorded as sha256 of exit
code, stdout and stderr. A change to how the CLI or the library computes
or prints any of these must show up here; a refactor must leave them
byte-identical."""

import hashlib
import warnings

import pytest

from prodgeo import cli, harness, models
from prodgeo.errors import ProdGeoError

KAD_GENERIC = '{"k1": 0.3, "k2": 0.2, "k3": 0.3, "beta1": 1.5, "beta2": 0.8, "delta": 2}'
KAD_DEVELOPABLE = '{"k1": 0.4, "k2": 0, "k3": 0.6, "beta1": 0.3, "beta2": 0.7, "delta": 1.7}'
VES_RHO_BELOW_1 = '{"k": 1.3, "beta": 0.5, "rho": 0.3, "delta": 0.7}'
VES_INCREASING = '{"k": 1, "beta": 0.4, "rho": 1.5, "delta": 1.6}'
VES_DECREASING_RHO = '{"k": 1, "beta": 0.4, "rho": 0.6, "delta": 1.3}'
VES_STEEP = '{"k":1,"beta":0.5,"rho":0.5,"delta":3}'
GRID = "0.1,10,5,0.1,10,5,log"
#: the size of the benchmark's grids
GRID_200 = "0.1,10,200,0.1,10,200"

CASES = {
    "grid-csv-kadiyala-generic": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                  "--grid", GRID),
    "grid-json-kadiyala-generic": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                   "--grid", GRID, "--format", "json"),
    "grid-csv-kadiyala-developable": ("grid", "--model", "kadiyala",
                                      "--params", KAD_DEVELOPABLE, "--grid", GRID),
    "grid-json-kadiyala-developable": ("grid", "--model", "kadiyala",
                                       "--params", KAD_DEVELOPABLE, "--grid", GRID,
                                       "--format", "json"),
    "grid-csv-ves-rho-below-1": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                 "--grid", GRID),
    "grid-json-ves-rho-below-1": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                  "--grid", GRID, "--format", "json"),
    "grid-csv-ves-strict": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                            "--grid", "0.5,2,4,0.5,2,4,linear", "--strict-domain"),
    "grid-csv-ves-increasing": ("grid", "--model", "ves", "--params", VES_INCREASING,
                                "--grid", GRID),
    "grid-json-ves-increasing": ("grid", "--model", "ves", "--params", VES_INCREASING,
                                 "--grid", GRID, "--format", "json"),
    "eval-ves": ("eval", "--model", "ves", "--params", VES_INCREASING, "--point", "1.5,0.7"),
    "eval-ves-strict-invalid": ("eval", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                "--point", "2,1.5", "--strict-domain"),
    "eval-ves-outside-domain": ("eval", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                "--point", "2,1.2"),
    "eval-kadiyala": ("eval", "--model", "kadiyala", "--params", KAD_GENERIC,
                      "--point", "0.3,4"),
    "eval-kadiyala-nonpositive": ("eval", "--model", "kadiyala", "--params", KAD_GENERIC,
                                  "--point=-1,2"),
    # a power that overflows in the jet, whose error names the point
    "eval-ves-power-overflow": ("eval", "--model", "ves", "--params", VES_DECREASING_RHO,
                                "--point", "1e-300,1e-300"),
    # a product in the jet overflows, and the forms name the final jet's slots
    "eval-ves-non-finite-jet": ("eval", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                "--point", "1e-200,1e300"),
    # slopes so steep that W^2 = 1 + f_u^2 + f_v^2 overflows, on a point and in a grid
    "eval-ves-steep-slopes": ("eval", "--model", "ves", "--params", VES_STEEP,
                              "--point", "1e100,1e100"),
    "grid-ves-steep-slopes": ("grid", "--model", "ves", "--params", VES_STEEP,
                              "--grid", "1e100,1e101,2,1e100,1e101,2"),
    "classify-ves": ("classify", "--model", "ves", "--params", VES_RHO_BELOW_1),
    "classify-kadiyala-generic": ("classify", "--model", "kadiyala", "--params", KAD_GENERIC),
    "classify-kadiyala-developable": ("classify", "--model", "kadiyala",
                                      "--params", KAD_DEVELOPABLE),
    "specialize": ("specialize", "--model", "kadiyala", "--params", KAD_DEVELOPABLE),
    "specialize-ves-rejected": ("specialize", "--model", "ves", "--params", VES_INCREASING),
    "verify-t1": ("verify-t1", "--trials", "9", "--seed", "4", "--grid", GRID),
    "verify-t2": ("verify-t2", "--trials", "3", "--seed", "4", "--grid", GRID),
    # edges of a whole-grid evaluation: a power overflow and a jet overflow
    # that are not in the first row, valid and invalid rows at extreme u,
    # one-row reports, and a strict-domain JSON report
    "grid-kadiyala-power-overflow": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                     "--grid", "1e100,1e200,3,1,2,2"),
    # the first failing row fails at a later step than a later row does
    "grid-kadiyala-first-row-fails-late": ("grid", "--model", "kadiyala",
                                           "--params", KAD_GENERIC,
                                           "--grid", "1e-300,1e200,2,1e-300,1e-300,1"),
    "grid-kadiyala-base-underflow": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                     "--grid", "1e-300,1e200,2,1e-200,1e-200,1"),
    "grid-ves-extreme-u": ("grid", "--model", "ves", "--params", VES_INCREASING,
                           "--grid", "1,1e200,3,1,2,2"),
    "grid-ves-invalid-extreme-u": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                   "--grid", "1,1e200,3,1,2,2"),
    "grid-csv-1x1": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                     "--grid", "1,1,1,2,2,1"),
    "grid-json-1x1": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                      "--grid", "1,1,1,2,2,1", "--format", "json"),
    "grid-json-ves-strict": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                             "--grid", "0.5,2,4,0.5,2,4,linear", "--strict-domain",
                             "--format", "json"),
    # whole reports at the benchmark's size, one with a third of its rows
    # outside the domain
    "grid-csv-kadiyala-generic-200": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                      "--grid", GRID_200),
    "grid-json-kadiyala-generic-200": ("grid", "--model", "kadiyala", "--params", KAD_GENERIC,
                                       "--grid", GRID_200, "--format", "json"),
    "grid-csv-ves-rho-below-1-200": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                     "--grid", GRID_200),
    "grid-json-ves-rho-below-1-200": ("grid", "--model", "ves", "--params", VES_RHO_BELOW_1,
                                      "--grid", GRID_200, "--format", "json"),
    # edges of a verify run: closed forms that overflow through a product of
    # finite powers (an error naming the function and the point, exit 2), and
    # power overflows; in verify-t2's, the first failing point fails in the
    # closed form and later points fail earlier, in the jet
    "verify-t1-product-overflow": ("verify-t1", "--trials", "3",
                                   "--grid", "1e30,1e31,2,1e30,1e31,2"),
    "verify-t2-product-overflow": ("verify-t2", "--trials", "2",
                                   "--grid", "1e30,1e31,2,1e30,1e31,2"),
    "verify-t1-power-overflow": ("verify-t1", "--trials", "3",
                                 "--grid", "1e100,1e101,2,1e100,1e101,2"),
    "verify-t2-power-overflow": ("verify-t2", "--trials", "2",
                                 "--grid", "1e100,1e200,3,1,2,2"),
    # a power's base underflows to 0.0 in the jet; the error names the point
    "verify-t2-base-underflow": ("verify-t2", "--trials", "2", "--seed", "21", "--grid",
                                 "5.3183557491192666e-114,6.4769932553289324e-114,3,"
                                 "5.3183557491192666e-114,6.4769932553289324e-114,3"),
    # Den_F underflows to 0.0 where the autodiff K is finite
    "verify-t1-denf-underflow": ("verify-t1", "--trials", "1",
                                 "--grid", "1e-100,1e-99,2,1e-100,1e-99,2"),
    # runs of more trials than one batch of a verify run takes, and not a
    # multiple of it: trials with no point in the domain, counted apart,
    # between curved ones and at the end; failing trials in the middle of a run; an
    # error that a later trial raises, after earlier trials passed
    "verify-t1-empty-trials": ("verify-t1", "--trials", "11", "--seed", "0",
                               "--grid", "10,100,3,0.1,1,3"),
    "verify-t1-failing-trial": ("verify-t1", "--trials", "20", "--seed", "2", "--tol", "1e-14",
                                "--grid", "0.1,10,7,0.1,10,7"),
    "verify-t2-failing-trials": ("verify-t2", "--trials", "5", "--seed", "2", "--tol", "1e-14",
                                 "--grid", "0.1,10,7,0.1,10,7"),
    "verify-t1-later-trial-raises": ("verify-t1", "--trials", "11",
                                     "--grid", "1e15,1e25,2,1e15,1e25,2"),
    "verify-t2-later-trial-raises": ("verify-t2", "--trials", "3", "--seed", "4",
                                     "--grid", "2.38e+33,6.51e+36,2,2.38e+33,6.51e+36,2"),
}

GOLDEN = {
    "classify-kadiyala-developable": "ff4388165d5c1a3c025d1f5e35cd75f6d5b524bb8d5aa9293a5c0c54c55766ca",
    "classify-kadiyala-generic": "2b5c5ffb86419983df33b573bfd506d5faf6fe1ccfdd0f06602b817719fe372a",
    "classify-ves": "ea372de2b5ec61ab952eff88917a1219d2ec4b12b90555cd33a94d1c7624184a",
    "eval-kadiyala": "cba5089fb1c4186b4bc1518b01477461c83f03676cc636ed3f3c02a8404222c2",
    "eval-kadiyala-nonpositive": "51b6928980dec7874456a27344f1e6b006e1e7e1f08eb30bfef8a95ecbd62ca9",
    "eval-ves": "35f2229f8ca4484c69da7307e63ae27cdfcf66332e06c97d515abd67970dabdc",
    "eval-ves-non-finite-jet": "32185a4db0ebb52a9556da6fc329ea46fb44dc7026722524e45cd7ec5c7c7f7e",
    "eval-ves-power-overflow": "f633edaea7adfa77260f69048ced02caf7e691c690ae015409fa433d3eea843c",
    "eval-ves-outside-domain": "a811b8900058a52f9adfa27b61822d73ddbb28a284e583d373f3014b9640a153",
    "eval-ves-steep-slopes": "a85b3aa1bdb4d6837f10cb56761c7fbc4ccc26bc223bfa4356d82b0575ff04f4",
    "eval-ves-strict-invalid": "00e641c8575737b54815442e9f98e2d08ced264c80ac151ec914d5b55253a28a",
    "grid-csv-1x1": "0b860e634e48ff615e9547a3311608109f47c26a29cf2be200580bd1096fdc4a",
    "grid-csv-kadiyala-developable": "43b594b5e46fbfd7265f5bd77e4bee59bbce99c3ced02e097e227e3e9d329017",
    "grid-csv-kadiyala-generic": "ba3c86d47f7c503c6397aa431dee500ee807e3a6bc1565a0a52409a19540750d",
    "grid-csv-ves-increasing": "c3d8ea0bb04d02fa5ef862bb23550e6a71ce5df88cb6ebddbb03861a4e044dd0",
    "grid-csv-ves-rho-below-1": "77260b56d2b9365aa7331004ae90d13b7ecdf78e8d61ddfcf70ee82357864c98",
    "grid-csv-ves-strict": "2b3ca6b6495d6461319f9dbd83d0844265289f58a283a5197dc0bc992d5d3f2b",
    "grid-json-1x1": "dc0cb21ece8bb4e354176daed3f24f3af79ec51fa6784b4c4b2a1c70ad7293eb",
    "grid-json-kadiyala-developable": "f016d3db6d68cc69a596bb89bd3d3f836c5b546aa4785f4ec6480e32111f61fe",
    "grid-json-kadiyala-generic": "f3ff072f95b68e846df9cf07b46ce1e0ee6b7d23bc7aa2660ad2f19e030b4d52",
    "grid-json-ves-increasing": "dc90ce147b3afa901067220e09db9292d50e8c2d0bf1620f42262fdb4a8ea906",
    "grid-json-ves-rho-below-1": "ef73737fb826a5c4f2f234ef59a093f423774eb8174e478552e9d294d68af49a",
    "grid-json-ves-strict": "3ee787ffcf65dc5e0b543c6b08735d67693c5ec2e66477bf5f49e069e4d9ac19",
    "grid-csv-kadiyala-generic-200": "66ea120bd88b0c3df385be459d4509f5e40482288845df3b40e5121cb21d958e",
    "grid-json-kadiyala-generic-200": "fa5785c04bc2580597801d4e842c326e3512265b413812e9578589176812b46c",
    "grid-csv-ves-rho-below-1-200": "fe5a2ef4fbc4d063bd7b33f386209430fa4ba2420cddece9a872712c0eb8d05a",
    "grid-json-ves-rho-below-1-200": "5baf8e8b0808b1650f7b2e7aed55db66d96a8289b343c45f08e4e7b21811c394",
    "grid-kadiyala-base-underflow": "3d2a0b7ccb1cecb974b63f92de4290ee039ba7739a7b2266425b20a40a491914",
    "grid-kadiyala-first-row-fails-late": "c7a7b818bcffa222595db4307379a92492c300cf06b1bd7f2fad9c5bbb12d5b2",
    "grid-kadiyala-power-overflow": "fbdf76c97e3e4547bdf80ee6bed4e72b7fb477026f418443de5c455866934d89",
    "grid-ves-steep-slopes": "a85b3aa1bdb4d6837f10cb56761c7fbc4ccc26bc223bfa4356d82b0575ff04f4",
    "grid-ves-extreme-u": "f44d6ff6692cead544b70b1682ef38882aea9c9ed10b9df8fb34bbf4512f5fda",
    "grid-ves-invalid-extreme-u": "e4a01fd060bcb89fba5c5f22f194acefa78b0e7a66f05e7591765f4f263e750a",
    "specialize": "ca57baf53e3d21a1cb60731f6da0f7f376f283ff6129d27f525f1340397b97d9",
    "specialize-ves-rejected": "3b159878e3eecdd3dbda38d318637d589c8b70e3af66e2fae2793987c2151f00",
    "verify-t1": "9ef3690a57ff52a43b858f606d8eef5ed2726e0aaec92928057c61200e3685ca",
    "verify-t2": "abdb70e4364beab32d7e06c4072640f60074bb005839f00e9615d27ba8b9206b",
    "verify-t2-base-underflow": "9f110e59f7e5f67426fd6f57dc21d818e0a096e68d08c54b7c73dd1305beaa7b",
    "verify-t1-denf-underflow": "7a10dcc26ff3849a9de493bc0e8eb849c657f18fec798fa3d6b446ae4b11a6a6",
    "verify-t1-power-overflow": "5554f72e6b7c3cea461964470aece575dcafab868d7ec5ff9051ad148e32f4be",
    "verify-t1-product-overflow": "cd9afc6c84aa1c0b2f902d6905df12241fed7645f2500416c0ba771880647f79",
    "verify-t2-power-overflow": "c5a1f19061bb16b76365993294a326e628ea86c76c4fe103d1f727768a780066",
    "verify-t2-product-overflow": "323554477491ebeb42e009c69d6ec1015a63b12848fb986b7c3d7ad4375e3122",
    "verify-t1-empty-trials": "230ec1832b516d45a899de6cdbf5d28060832d62f63450bc0f2fa1e3e1b9be50",
    "verify-t1-failing-trial": "aebc546b5eb494fa4d61ffdb81840e299c93e0c8c56b29ff2eeb10c714f864f3",
    "verify-t1-later-trial-raises": "1c1100315184be92e8382832173cb4613dbb676135bab2d6881d8b6c6c5d362b",
    "verify-t2-failing-trials": "9bfcaa43a3b22cbec1ad463fa635be3d787ba8b74bb84b5d1b68ff2959b4e5d4",
    "verify-t2-later-trial-raises": "f53e2106c80e3ec01a654fc2f97e62dfec2d8b62777880d6ed8bb3b2724dfcfe",
}


def blob_hash(code: int, out: str, err: str) -> str:
    """The sha256 that GOLDEN holds for a run's exit code, stdout and stderr."""
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(capsys, name):
    code = cli.main(list(CASES[name]))
    captured = capsys.readouterr()
    assert blob_hash(code, captured.out, captured.err) == GOLDEN[name]


EDGE_GRIDS = ("grid-kadiyala-power-overflow", "grid-kadiyala-first-row-fails-late",
              "grid-kadiyala-base-underflow", "grid-ves-extreme-u",
              "grid-ves-invalid-extreme-u", "grid-csv-1x1", "grid-json-ves-strict",
              "grid-ves-steep-slopes")


@pytest.mark.parametrize("name", EDGE_GRIDS)
def test_edge_grids_raise_no_warning(name):
    """A grid may fail with the program's own error, never with a warning."""
    args = cli.build_parser().parse_args(CASES[name])
    params = models.params_from_json(harness.FAMILIES[args.model].params_type, args.params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            harness.build_grid_report(params, harness.parse_grid_spec(args.grid),
                                      strict_domain=args.strict_domain)
        except ProdGeoError:
            pass


EDGE_VERIFY = ("verify-t1-product-overflow", "verify-t2-product-overflow",
               "verify-t1-power-overflow", "verify-t2-power-overflow",
               "verify-t1-denf-underflow", "verify-t1-later-trial-raises",
               "verify-t2-later-trial-raises", "verify-t2-base-underflow")


@pytest.mark.parametrize("name", EDGE_VERIFY)
def test_edge_verify_grids_raise_no_warning(name):
    """A verify run may fail with the program's own error, never with a warning."""
    args = cli.build_parser().parse_args(CASES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            args.run(args.trials, args.seed, harness.parse_grid_spec(args.grid),
                     tol_K=args.tol)
        except (ProdGeoError, ArithmeticError):
            pass
