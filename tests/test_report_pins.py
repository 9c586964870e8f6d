"""The bytes of every report, pinned: each command's files and stdout on two
generated ledgers, compared with sha256 digests recorded from a known-good
tree. A change that moves a digest changes what dposf writes.

The ledgers are tools/plants.json, which plants every kind, and the config
of test_11. Every command runs in one temporary directory with relative
paths, so that the manifests hold the same paths on every machine.
"""
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from dposforensics.cli import main

from conftest import TEST_11_CONFIG

CONFIGS = {
    "plants": (Path(__file__).parents[1] / "tools" / "plants.json").read_text(),
    "test11": json.dumps(TEST_11_CONFIG),
}

TRACE, HEADERS = "ledger/trace.jsonl", "ledger/headers.jsonl"

# A second value for every analysis option, for the runs named "<command>-2";
# each command takes those of them that it declares.
SECOND = {"snapshot_cadence": "7", "top_stake_pct": "0.5", "theta": "0.6",
          "window_days": "3", "outlier_pct": "0.2", "seed": "1",
          "entropy_n": "3,all"}


def _options(command: str, values: dict[str, str]) -> list[str]:
    return [arg for p in main.commands[command].params if p.name in values
            for arg in (f"--{p.name.replace('_', '-')}", values[p.name])]


def _runs() -> dict[str, list[str]]:
    """Each run's output directory, and its command line without -o."""
    runs = {"ledger": ["generate", "-c", "config.json"],
            "all": ["all", TRACE, HEADERS],
            "score": ["score", "all", "ledger/truth.json"],
            "replay": ["replay", TRACE]}
    for command in ("metrics", "cluster", "motifs", "gangs"):
        args = [command, TRACE] + ([HEADERS] if command == "metrics" else [])
        runs[command] = args
        runs[f"{command}-2"] = args + _options(command, SECOND)
    for command in ("metrics", "cluster"):
        runs[f"{command}-daily"] = runs[command] + ["--snapshot-cadence", "1"]
    return runs


def _digests(work: Path) -> str:
    """sha256 of each run's stdout and of every file it wrote, one
    `sha256sum` line each, in path order."""
    (work / "config.json").write_text(CONFIGS[work.name])
    found = {}
    for out, args in _runs().items():
        result = CliRunner().invoke(main, args + ["-o", out])
        assert result.exit_code == 0, (out, result.output)
        found[f"{out}/stdout"] = hashlib.sha256(result.stdout_bytes).hexdigest()
        found.update({f"{out}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in (work / out).iterdir()})
    return "".join(f"{found[path]}  {path}\n" for path in sorted(found))


@pytest.mark.parametrize("ledger", sorted(CONFIGS))
def test_report_bytes_are_pinned(ledger, tmp_path, monkeypatch):
    work = tmp_path / ledger
    work.mkdir()
    monkeypatch.chdir(work)
    assert _digests(work) == PINS[ledger]


PINS = {
    "plants": """\
a992bf37d15b6d3953743b8cfc60cc3d0735ced37d125426dcddbf5325400183  all/active_days.csv
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  all/clusters.csv
19e4c66986453a00ac7f836e035692976e725635fd0dd45fb31a416f54a7ba51  all/clusters.json
988f5a0306f459990277fc56cd9c40b0654e3007fa720fb0fb07a0ede37eef0e  all/entropy.csv
1cab2914331da70f722537184d992c5de8c49e226144909c176329ce121b7835  all/gang_scores.csv
6e41212f0c147b6a8a3578f6b5f8db2b0c72cd20f887a9d1c5669042f883ef93  all/gangs.json
321f66fe268658f5d1b9fcc28408ced90bf7cc9e33f549b37871d1c1b2311515  all/metrics.json
2d0ac62f7e786dd7c8cfebc6b26661cf78813263979d9e6e57b650564b67c3c4  all/motif_series.csv
64af7b0813924fe5fcfcb28811c6401dc8eba53e6b8309787d229bae23ed6c24  all/motifs.json
84aeae5cc315a1f3198d2467e54aa3248b6964c9c044ec33b9a16424f91d8284  all/motifs.jsonl
e90b65e04c188b11d34a194a199988fe168592f3d22bc5d5035faaae981ce6b0  all/proxy_share.csv
07bb1b1a0705de0e31e16340b1e7ebe9fbf1c8f43af39edfece21defd98c45f5  all/stake_distribution.csv
152806bef9f9da65626d1f6e75dc0606b8ae21ed078abb125fcc904a28da4d70  all/stdout
779a834dd3f9499bc361ec73388cb159b02f4609065f692e68438c7004fd1826  all/summary.json
e048d9287ac533e6324e4a00f520a8912174f0ab69a808ce46a305501253f8c4  all/turnover.csv
3628c817e125de10efddac831737873e86309e9bb55f85e13f61b36150190727  cluster-2/clusters.csv
cfda3c5214266d58abb1c27669bfdca736785bec8a707c5e0eed65da76fd1516  cluster-2/clusters.json
6b32ef4ae18dd62bc62e90b1aa6114c91d3b7a7374b386e01cd760d793713cf1  cluster-2/stdout
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  cluster-daily/clusters.csv
130bb0e44ba0805ed27d25defbff04d80ac4748b41e026a6114088eca86b4587  cluster-daily/clusters.json
91e655f23a5db3d464757fde0938795e4e741380c67b7414622e0815ebaa7539  cluster-daily/stdout
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  cluster/clusters.csv
8278f6a90c2dd52622e90db1fe7d0c4ead27bd02ffcc1dddca077dfd0abe7342  cluster/clusters.json
a895d32f9979f53ac32cf798970ebfac10d0bed86254f5e3677a66f88f872428  cluster/stdout
1cab2914331da70f722537184d992c5de8c49e226144909c176329ce121b7835  gangs-2/gang_scores.csv
b1a7cde59dd952452afcaa131f5f15546b415a9ecbfe7f4adcf97b6aceb0a35b  gangs-2/gangs.json
25b3042394617d3eb35d494f885d25f81eac3f4041e03bbc697a27484d17ad9c  gangs-2/stdout
1cab2914331da70f722537184d992c5de8c49e226144909c176329ce121b7835  gangs/gang_scores.csv
1ca6c814b97898565ee32093e4ccd9cc312ee40b3454c1e9eb48f7ed56188332  gangs/gangs.json
ef3fe6a2d4ca43bbf7809050454c3491783e1d442662cbb8853b6869bab8662e  gangs/stdout
ec68746cff65c2c395ea0012c91078d9c201bb58e95fae30027069f3153e5608  ledger/headers.jsonl
0d6fea1a58ff4768dce3cc14546073dc00a48adcdc5b3aa000930ab74d2e6629  ledger/stdout
1025d43ea3ddfd18d040443b13b00742dda5cfc3fa4537e268edc2887f4a45d9  ledger/trace.jsonl
3c0377dfa205c159786702b5577937b46f513fbded4fad13ceb09f0da1f23765  ledger/truth.json
a992bf37d15b6d3953743b8cfc60cc3d0735ced37d125426dcddbf5325400183  metrics-2/active_days.csv
a016a664a6b94711af41e3507e88dda78be6f707b8be74a35a1105d76cd97ae5  metrics-2/entropy.csv
b94bbccc36e6789935b389ef712689e69a69e0d071bd25ce9513d7dc2c457d67  metrics-2/metrics.json
9731e240aba43c5d645e67122dccb64e831f29d83dce85b28ac32fe9cdec6fa7  metrics-2/proxy_share.csv
07bb1b1a0705de0e31e16340b1e7ebe9fbf1c8f43af39edfece21defd98c45f5  metrics-2/stake_distribution.csv
95dbe14aa7f2dc99415ce28f5d2524b299947e3272d3cad5f16d637a546db26a  metrics-2/stdout
e048d9287ac533e6324e4a00f520a8912174f0ab69a808ce46a305501253f8c4  metrics-2/turnover.csv
a992bf37d15b6d3953743b8cfc60cc3d0735ced37d125426dcddbf5325400183  metrics-daily/active_days.csv
988f5a0306f459990277fc56cd9c40b0654e3007fa720fb0fb07a0ede37eef0e  metrics-daily/entropy.csv
cc5677c842357e80e28d61fbbddb2721e54d08c3a6cde47bbf21850e6bd1059b  metrics-daily/metrics.json
00908849839432bc8482e6451d872adb686491ceb072dd1e8abb7605a7cda4a7  metrics-daily/proxy_share.csv
07bb1b1a0705de0e31e16340b1e7ebe9fbf1c8f43af39edfece21defd98c45f5  metrics-daily/stake_distribution.csv
60dda03f17910e9c2d5c3afb0c595db628e956ef4d307039181fb8f738a6f6a3  metrics-daily/stdout
e048d9287ac533e6324e4a00f520a8912174f0ab69a808ce46a305501253f8c4  metrics-daily/turnover.csv
a992bf37d15b6d3953743b8cfc60cc3d0735ced37d125426dcddbf5325400183  metrics/active_days.csv
988f5a0306f459990277fc56cd9c40b0654e3007fa720fb0fb07a0ede37eef0e  metrics/entropy.csv
1424ede747a8f025fb6fcbbf61c8d49d86c7f4cdf5c4215fc791f568c549a63d  metrics/metrics.json
e90b65e04c188b11d34a194a199988fe168592f3d22bc5d5035faaae981ce6b0  metrics/proxy_share.csv
07bb1b1a0705de0e31e16340b1e7ebe9fbf1c8f43af39edfece21defd98c45f5  metrics/stake_distribution.csv
a6709be85bee2a889b45799e02370c97c9a4dee7272dedf7f9ef6b1d2fdb41db  metrics/stdout
e048d9287ac533e6324e4a00f520a8912174f0ab69a808ce46a305501253f8c4  metrics/turnover.csv
2d0ac62f7e786dd7c8cfebc6b26661cf78813263979d9e6e57b650564b67c3c4  motifs-2/motif_series.csv
97d4a671c93f49651ba21ce60d74eeca056dfcc74e633abd11b587719fbeb08f  motifs-2/motifs.json
84aeae5cc315a1f3198d2467e54aa3248b6964c9c044ec33b9a16424f91d8284  motifs-2/motifs.jsonl
74341eb66f3717f152806cac5a2b62e178e6fcae51bf8979ed2efe316e5f5f5c  motifs-2/stdout
2d0ac62f7e786dd7c8cfebc6b26661cf78813263979d9e6e57b650564b67c3c4  motifs/motif_series.csv
176e0eb4a2b014f78fbf88d77a86eafefb1009501a431b827f6652f602087275  motifs/motifs.json
84aeae5cc315a1f3198d2467e54aa3248b6964c9c044ec33b9a16424f91d8284  motifs/motifs.jsonl
4823a94c01059343d59ee50e9a4b25a0552d7b7e637382f20bbbad5502b72df9  motifs/stdout
2cb99a50af100b8c542e408aadf46560151b5db5910e338cd35e9d8f580fee03  replay/state.json
1a39a44b60cac07a35626d1715892bb2cac3254f2e22dea9bfdd0555d3f6c77b  replay/stdout
8f18574a0730c065d2ba551141b59496ec8a111a071caf44b26573a742bb18ff  score/score.json
382cb0ba541df2e4d6131aff04e39d37bf6f786329c56c92f94dbe283f479dea  score/stdout
""",
    "test11": """\
ebd0d4ff9e8645d8b5faca6aad1e593d95fffc0fd81b6d4ae8b646fd08fa693b  all/active_days.csv
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  all/clusters.csv
f72ef8aaaef16fb9b597c66f8f9ba7898b516841520f088582764d2d61716b33  all/clusters.json
c000472426acfa667d23a07f8737f88626f2b7048974af37f949a7a875c561ff  all/entropy.csv
5a598ba4ce8831df82a280d5cdf20ac7cadec8a968deff5f03fddb8c3c5828e5  all/gang_scores.csv
6165ac4c3eb1ff75ab83dcb0304c9621f77e009c23470e9b948a8018280888b5  all/gangs.json
63a22225b94916ce019d5ceba04de91f7d0bb2161b254e97b9882880be0c80ff  all/metrics.json
1119fc5f18d6469591169734726aec22e7241cc349ac8e3115d128de66cfc0c4  all/motif_series.csv
d212ddd65902537babb2fd0b392821d636e852d69a6594f0690d8419205bcd8a  all/motifs.json
802912ac5899040d1fef5586ae44ef8e2a2672df50d907cb40c17178c398695c  all/motifs.jsonl
0261bf63312c42a23492b231530be9287834e19cbda8f0497901e60907679719  all/proxy_share.csv
a3f3dd9ef3442baf9fbf596114bc57a986ff15e4915e10610742d9b0ce56828d  all/stake_distribution.csv
152806bef9f9da65626d1f6e75dc0606b8ae21ed078abb125fcc904a28da4d70  all/stdout
e68aea7776cfcc608cb464eb84d6a89cd059d7644414f7267c6c71da519d389e  all/summary.json
8f11fff73afb43e93c10a2fad88c591dedcf7d516dc011c031204824326ef576  all/turnover.csv
170376491da58d822e749fe8eee00d27f0c8cf3dc140e391cdcd804b8f5d7ab5  cluster-2/clusters.csv
164bba50150d9544e2cb409e0ccbad5f4d6c1f96609734aefc9f1efa887a2443  cluster-2/clusters.json
6b32ef4ae18dd62bc62e90b1aa6114c91d3b7a7374b386e01cd760d793713cf1  cluster-2/stdout
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  cluster-daily/clusters.csv
776fef0f90eda43f1ebfe6e41d193e87d9d1289719909b050afc0f9453510846  cluster-daily/clusters.json
91e655f23a5db3d464757fde0938795e4e741380c67b7414622e0815ebaa7539  cluster-daily/stdout
1bc00a075377409810e4d961647600a28dbf421888e4e16474fbd8ba6001e527  cluster/clusters.csv
3c72891b1012bbf25d1b42af0d1ffbe4fa18f280f715aa7d67eb0bf10fa86970  cluster/clusters.json
a895d32f9979f53ac32cf798970ebfac10d0bed86254f5e3677a66f88f872428  cluster/stdout
5a598ba4ce8831df82a280d5cdf20ac7cadec8a968deff5f03fddb8c3c5828e5  gangs-2/gang_scores.csv
6e15fe642a04960c431dc834f0b0de915dba9654135ef37b75ff604a64917494  gangs-2/gangs.json
25b3042394617d3eb35d494f885d25f81eac3f4041e03bbc697a27484d17ad9c  gangs-2/stdout
5a598ba4ce8831df82a280d5cdf20ac7cadec8a968deff5f03fddb8c3c5828e5  gangs/gang_scores.csv
017f01539ab649784fd5b03e16f6f4dfb14974afab1c856f6981d8af847c4ba3  gangs/gangs.json
ef3fe6a2d4ca43bbf7809050454c3491783e1d442662cbb8853b6869bab8662e  gangs/stdout
ec5e0767bf2191115fe98a3bfd7720c0357b704cd85e3dd491f9401dc14f2a40  ledger/headers.jsonl
0d6fea1a58ff4768dce3cc14546073dc00a48adcdc5b3aa000930ab74d2e6629  ledger/stdout
cbcdc56a2f527102be1a9fdd6730998b4f5d028e5511b71fed10ae9a698c9294  ledger/trace.jsonl
12e386dc539808eeee68bf5ff3f0091ffc35cdf19a3cfeb648e417be8e70b011  ledger/truth.json
ebd0d4ff9e8645d8b5faca6aad1e593d95fffc0fd81b6d4ae8b646fd08fa693b  metrics-2/active_days.csv
e9ca2f75aa78a0403a6ec832b1013d9956ff9362b47a62a64ebca4a9ca533aa7  metrics-2/entropy.csv
cbc418c8a76a0565b913c60e75fcc88e4e2b460d3cefe70137effba90b0eb3fe  metrics-2/metrics.json
4d50ae47d22225fd6c62b1677f72378db4369d5fc541bd3344ae232ba728cf5f  metrics-2/proxy_share.csv
a3f3dd9ef3442baf9fbf596114bc57a986ff15e4915e10610742d9b0ce56828d  metrics-2/stake_distribution.csv
95dbe14aa7f2dc99415ce28f5d2524b299947e3272d3cad5f16d637a546db26a  metrics-2/stdout
8f11fff73afb43e93c10a2fad88c591dedcf7d516dc011c031204824326ef576  metrics-2/turnover.csv
ebd0d4ff9e8645d8b5faca6aad1e593d95fffc0fd81b6d4ae8b646fd08fa693b  metrics-daily/active_days.csv
c000472426acfa667d23a07f8737f88626f2b7048974af37f949a7a875c561ff  metrics-daily/entropy.csv
c7c052648b1766e37987cbe4cc2d47d2ec878553575b1988b581db1c4d16682e  metrics-daily/metrics.json
3d6a18ffba4f87f9e50de4210c5876f0c320d14daff25ef11072d32ae755cafd  metrics-daily/proxy_share.csv
a3f3dd9ef3442baf9fbf596114bc57a986ff15e4915e10610742d9b0ce56828d  metrics-daily/stake_distribution.csv
60dda03f17910e9c2d5c3afb0c595db628e956ef4d307039181fb8f738a6f6a3  metrics-daily/stdout
8f11fff73afb43e93c10a2fad88c591dedcf7d516dc011c031204824326ef576  metrics-daily/turnover.csv
ebd0d4ff9e8645d8b5faca6aad1e593d95fffc0fd81b6d4ae8b646fd08fa693b  metrics/active_days.csv
c000472426acfa667d23a07f8737f88626f2b7048974af37f949a7a875c561ff  metrics/entropy.csv
7e25b3cc4af373f18da16a364301a3b8902f13024c616ac3f2c5f35fb8bb9a44  metrics/metrics.json
0261bf63312c42a23492b231530be9287834e19cbda8f0497901e60907679719  metrics/proxy_share.csv
a3f3dd9ef3442baf9fbf596114bc57a986ff15e4915e10610742d9b0ce56828d  metrics/stake_distribution.csv
a6709be85bee2a889b45799e02370c97c9a4dee7272dedf7f9ef6b1d2fdb41db  metrics/stdout
8f11fff73afb43e93c10a2fad88c591dedcf7d516dc011c031204824326ef576  metrics/turnover.csv
1119fc5f18d6469591169734726aec22e7241cc349ac8e3115d128de66cfc0c4  motifs-2/motif_series.csv
97b7cf80efb2d1c441ef0b9792a43143aa2217083451516a824fee0b9f86ca5c  motifs-2/motifs.json
802912ac5899040d1fef5586ae44ef8e2a2672df50d907cb40c17178c398695c  motifs-2/motifs.jsonl
74341eb66f3717f152806cac5a2b62e178e6fcae51bf8979ed2efe316e5f5f5c  motifs-2/stdout
1119fc5f18d6469591169734726aec22e7241cc349ac8e3115d128de66cfc0c4  motifs/motif_series.csv
7bacde06fc0982bb46ceaea8902af2e671107dc1536ba4e72985172e379e910b  motifs/motifs.json
802912ac5899040d1fef5586ae44ef8e2a2672df50d907cb40c17178c398695c  motifs/motifs.jsonl
4823a94c01059343d59ee50e9a4b25a0552d7b7e637382f20bbbad5502b72df9  motifs/stdout
7ea5408821c919f48e572e487bb3ddb3db0b3ec1b5bcc5db7ad12ceff43f0d0b  replay/state.json
05a21b69953504e9297f40f747dc521d235432d6d23e52bd535ce932dcf47abd  replay/stdout
e1423e3e18e1285c576428082533ca9eb613da152092028624a08b4a7dc8235c  score/score.json
af4c01fc0f81b98154e3646d6d22873e079ea3c50c641a2d5a66a874d71ac2f1  score/stdout
""",
}
