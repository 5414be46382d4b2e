"""Golden sha256 digests of seeded chaos, incident and reshard runs.

Every run below is a pure function of its seed, so its trace digest,
metrics digest and full report digest are fixed numbers.  They were
recorded once and are pinned here: a refactor of the fault model, the
coordinator or the transports must reproduce them byte for byte.  The
reproducibility tests elsewhere only prove that a seed repeats within
one version of the code; these prove that it repeats across versions.

A deliberate change of behaviour (a new RNG draw, a different retry
order) changes these digests; re-record them in the same commit and say
why in its message.
"""

import pytest

from repro.analysis.byzantine import boost
from repro.analysis.load import optimal_strategy
from repro.cli import build_system
from repro.runtime.clock import VirtualClock, run_virtual
from repro.scenarios import ChaosConfig, digest, get_incident, run_chaos, run_scenario
from repro.service import (
    SimTransport,
    WorkloadConfig,
    make_replicas,
    run_capacity_benchmark,
    run_kv_benchmark,
    run_workload,
)
from repro.sharding import ReshardChaosConfig, run_reshard_chaos, run_sharded_benchmark

SYSTEMS = ("hgrid:4x4", "htriang:15", "majority:5")
MODES = ("sim", "inprocess")
CONFIGS = {
    "default": ChaosConfig(),
    "partitions": ChaosConfig(partitions=3),
    # Voting needs a b-masking system: each spec is boosted to one.
    "byzantine": ChaosConfig(byzantine_b=1, byzantine_liars=1, crash_rate=0.05),
    # The coordinator paths the three configs above leave unpinned:
    # quorum leases, the split read/write path and upfront hedging, and
    # all of them under voting.
    "lease": ChaosConfig(lease_ttl=5),
    "rw": ChaosConfig(read_write=True),
    "hedge": ChaosConfig(hedge_spares=1),
    "byzantine-hedge": ChaosConfig(
        byzantine_b=1, byzantine_liars=1, crash_rate=0.05, hedge_spares=1, lease_ttl=5
    ),
    # Deferred hedging (spares sent only after hedge_delay_ms or a member
    # failure), with the sim-chaos benchmark's own key space.
    "deferred-hedge": ChaosConfig(keys=256, hedge_spares=1, hedge_delay_ms=2.0),
}
#: Deferred hedging under open-loop Poisson arrival: operations overlap,
#: so hedge deadlines race other operations' replies in virtual time.
OPEN_LOOP_HEDGE = ChaosConfig(
    keys=256, hedge_spares=1, hedge_delay_ms=2.0, arrival="poisson", arrival_rate=300.0
)
INCIDENT_NAMES = (
    "incident-010-split-brain",
    "incident-011-replica-lag-read-repair-storm",
    "incident-012-hot-key-zipf",
    "incident-015-cache-avalanche",
    "net-104-lb-oscillation",
    "obs-103-slo-burn",
)
RESHARD = ReshardChaosConfig(ops=300, keys=24, clients=3, shards=3)


def fingerprint(report) -> dict:
    """The run's own digests (trace plus metrics or shard snapshot) and
    the digest of its whole report snapshot."""
    return {**report.hashes, "report": digest(report.to_dict())}


def chaos_fingerprint(spec: str, mode: str, config: str) -> dict:
    system = build_system(spec)
    if CONFIGS[config].byzantine_b:
        system = boost(system, CONFIGS[config].byzantine_b)
    report = run_chaos(system, seed=7, config=CONFIGS[config], mode=mode)
    return fingerprint(report)


def incident_fingerprint(name: str) -> dict:
    report, card = run_scenario(get_incident(name), seed=0, mode="sim")
    return {**fingerprint(report), "scorecard": digest(card)}


def reshard_fingerprint() -> dict:
    return fingerprint(run_reshard_chaos(seed=3, config=RESHARD))


GOLDEN_CHAOS = {
    "hgrid:4x4 inprocess byzantine": {
        "metrics": "53f5f24dba641e9be55b9adc51901923df95c268ee63d5f69af45dee7b8698de",
        "report": "c41849271ff9dd288f6af697dcad15e42b82757686f96427c0b7d4547775792e",
        "trace": "3da2e1f4e4e37cd081707e7115f3b2823899604d2ac66e26451c27f58431cd8c",
    },
    "hgrid:4x4 inprocess byzantine-hedge": {
        "metrics": "95aaf7c7c23c007f2e9a8da2c310d9b2e00d596e80ebfe77a01e41221da920e6",
        "report": "67597b227cf20544863c22950b811cc267e4a0446e0bf4156dc693bf0717b01f",
        "trace": "ddd79441f4ffcd8740ff4a8b0e0bfae0dbd640589293106e60bf3cbc4d433105",
    },
    "hgrid:4x4 inprocess default": {
        "metrics": "2996d972bb5b60309dfffa12f516fb942030eff4c0c43ba385475b2cde7b2b86",
        "report": "a41bddbf186a94744ae138c1f6fd915859d8ccaa72ef7a85d3b889f3d366c989",
        "trace": "722f32a66d084e51e64b8b803cf7cef3784de4d4f788685158191349deceb799",
    },
    "hgrid:4x4 inprocess deferred-hedge": {
        "metrics": "419a4359738e093e24461bf9063b473055e3f7acf9d27f5c6f3a9acbee0a503d",
        "report": "a39cbaeb92eaec09a44ec7d7a6bf4fec6ad5906552e897fb5263a392b905bcad",
        "trace": "c8391c375ec055c7245c926e124072cdeeac3b67f1972b82420d3fdcf2dbcaf5",
    },
    "hgrid:4x4 inprocess hedge": {
        "metrics": "bc8c3e727a5c550fa6497c27ebcaf1c63cd3cc78b9fa53439c7fe6f9fc7d9d48",
        "report": "150651da089e8119c7224c7daf84c0ee7a2de5b696ca32c4d3c11ed6a4df5565",
        "trace": "8cdd1fb69b74727d9afb52def27af822da92ed6ef8c0bfde1e6998b7d1e8149f",
    },
    "hgrid:4x4 inprocess lease": {
        "metrics": "2ebecf3e6fa7f5cccc16a49647eb54e80ee51c37898ca17d67a04aa945105714",
        "report": "1bdf233d48bcc6493c7939780fbe230daae1cc4a895b2b17d135c3e61779340b",
        "trace": "c4f2824abe113b2b5de2590e911941d88a885c2504ab1b58f46597f0c09c9af0",
    },
    "hgrid:4x4 inprocess partitions": {
        "metrics": "4373364612238d3b9c051aaa452bf456e24ad448f62dd0d09dccb250b4de4195",
        "report": "2ea4552008893c9f16122e40a73064fd141521530df74c63ef55d6f57c254a1a",
        "trace": "6af53d8f6ba9bef43debfd38a3f5bcf8f147dbcfcbe556a635ed2c47d731d983",
    },
    "hgrid:4x4 inprocess rw": {
        "metrics": "5db19959ed70dd77415254b32afa8d0eb07f8e32edebb7413be607f1e9815c04",
        "report": "a8cbb3b3f657c3a7d9c777be9acb4e4fcfe4b897daea69f44c749a67cfdff6ea",
        "trace": "521b4351c0252c51a2c12b4d68f95459c6cf740a9381f0ffa4a16a3b4dd4d5f2",
    },
    "hgrid:4x4 sim byzantine": {
        "metrics": "1c4b189a78610a705169a3cab72ad5500aaf57b48f855d19bce777111e9d1921",
        "report": "98cdff7c8a4e5a78b811c15708ad3e169b1330b13fa22983bd32a506586e25eb",
        "trace": "3da2e1f4e4e37cd081707e7115f3b2823899604d2ac66e26451c27f58431cd8c",
    },
    "hgrid:4x4 sim byzantine-hedge": {
        "metrics": "bad032f4359c5174ed2437a9f945be39a329d614d24ddd786320a4a9e2ab9c7e",
        "report": "6b592c8600ad3ff3e1a41f4ad63a17ca34b083ed6b3bf53e857fdb4d1860a5b7",
        "trace": "94b43d1d1c263d6cf11ab65d71b31586f74f6f6875b81b30aa9316eea0b3c085",
    },
    "hgrid:4x4 sim default": {
        "metrics": "8fc7c13841b1de09dfc64ceb1d3432af3e354f0cab5023bdc5737b73de6d47f1",
        "report": "3b1972322aa12d44bee0168ab787a0a1c2276e737d66e31083865f11b93ac238",
        "trace": "6746c92a7b721250a6a79247409a780b5a5cd222ffa2f20e27b93d21bd03020a",
    },
    "hgrid:4x4 sim deferred-hedge": {
        "metrics": "a5ea302e82173168239a9dce4c21cd3b3225ccad6c4f34085868151259dba6e7",
        "report": "63533fac67f6a9ffa0c23aea7bf17cbc620f8ba61b94498e1d6415b3304b50d4",
        "trace": "388192dfced46b1bc470f8a94f982890d4217542efa1311fba8433f047f3c652",
    },
    "hgrid:4x4 sim hedge": {
        "metrics": "d5847c20cb891cd66d457a2d670b81dfa74a5a3d3ed9487050ac1d3e778747cd",
        "report": "32e0c990ba4f5cc0233d277b14d15de23ca1b07b29d78c326d84009dce78c3f2",
        "trace": "c8c43e5d51007e8551659033824dda60574b303f17f8216651b815ab127b62ef",
    },
    "hgrid:4x4 sim lease": {
        "metrics": "e6a9279b68fea07026603b8e62678540641e62a06d15d887cdad0a73f86032ac",
        "report": "7bff897418cc1a5b533e36eb6e8c71cd176bf2d3e136ec613baace252358371e",
        "trace": "874f7a749b6dfd4e31fb9f02c558a7e85c535681b445e6ae0005e05cbc24c724",
    },
    "hgrid:4x4 sim partitions": {
        "metrics": "2fbeab8654fd857387353e4dc0e9dca6488126a61ee6cca403bf6ddd86cccb42",
        "report": "d05c361d524cc0bc12ec64c76e6b3349bc393140d23a05346cf9913e3c28d843",
        "trace": "6c6830a14167768ec7817dc92faa3da5ec6d01dac976731ad1adeb7c8a2c4df6",
    },
    "hgrid:4x4 sim rw": {
        "metrics": "a8f4a6944cef28d322937e290e6e6983346f430902d6118ebfeefcaf6f54c261",
        "report": "86232e05e45d558b6a482d6916b038b889d056bb50c463980eeb02fe93a2cf2a",
        "trace": "8e112cdb5029527b1277eb263761045605aba0fea7689d5746069d09ceb9879d",
    },
    "htriang:15 inprocess byzantine": {
        "metrics": "a30b0e23526ca057e0c7077a6b6bc0d478c10c75aa4478c8f8e1dd7805540071",
        "report": "aff48544d517e40efcc3b79b3e8962152e4297eb5bd88f582b363a4e136ac6f0",
        "trace": "5ea69c8db4afb789f1f59a51ca246f1fb07b0b8ff796fe88448589e07bfdc326",
    },
    "htriang:15 inprocess byzantine-hedge": {
        "metrics": "17494ce5a5ad2e635abaaf6dca3abd234a52f5106b67f03964b412cba63baf34",
        "report": "97b8bda14725fc01fe2e0fb056dcfb4b17c18b1cb5ccd8ba1a64cc8e56dc1e01",
        "trace": "c11d06a680ea6071517567c3f925584007e8076cbb6d802d896dd34511f6d204",
    },
    "htriang:15 inprocess default": {
        "metrics": "7cb6b2742156546b5e3f2610dec24416a05e05fbbf7de8ac9b7b42b0059d1c95",
        "report": "86053fa042aab553070f290c2d73ed5821bfe9d190ec06c7549eaad4e83694c6",
        "trace": "2e51d45d4e59d937527a84e105a94e8ffb26ef4a6174e204c384fa9fed7f16d5",
    },
    "htriang:15 inprocess deferred-hedge": {
        "metrics": "6dcbebd9d19c197cbed166b3832d21d77874ee500c56539dc523db5cbe28c3df",
        "report": "8c9adba4264a436604f0fee4ce5e1b9bc4e01c44b99cafd32f48c67b164d2343",
        "trace": "c03eb8eb37adaa3947c88278d5015f28a527a98bd1de85e1dcadc9be5fc28b59",
    },
    "htriang:15 inprocess hedge": {
        "metrics": "e6791650e05b50d19285bda3a08e1cd3fcb5b8cb12c97c3057ba1b64295c2e43",
        "report": "aff7caecba008c73aab466b9848f15982cb60c40601f086f499d1126d66d08c2",
        "trace": "891b42f305e68a08c0774dc3432bdd49c4d136640a1af567738a524fe62e4069",
    },
    "htriang:15 inprocess lease": {
        "metrics": "aef50304ffa6d707b79b37e15f88153de1218525ead60fa3cd355edca04cd057",
        "report": "e11509b03e67e3163f0b7c7c4e2010445a204a9b2682886752f7f2fb2d0fcff6",
        "trace": "59c7fd1402bab311d1e6f7ed5664d0c960e5ba316d410cda372ee094c792c190",
    },
    "htriang:15 inprocess partitions": {
        "metrics": "8ffa40cddf6993db953f6cb5e602652751b63afc125ca1298350ff970224b69d",
        "report": "12b4e2e99d77f874101dd3b183468b336b6206ebe7edc662d51958095f750295",
        "trace": "19504e86bcdec57e8261bb7270f6b82e0ea919ac238eead2961ec3c55d400b9c",
    },
    "htriang:15 inprocess rw": {
        "metrics": "18d30ca6fc966b004991d9e9eac9eff5eee2719a3b81accf458b80219590ede9",
        "report": "0b2f73c782a85cc945f9f44c070904fe0b3d60ecbc5ce833d4bb89319a15c9b6",
        "trace": "208b3626ce1be30958f74cb318b8f0ea15d48e48bf2a28a00433657b97955d2f",
    },
    "htriang:15 sim byzantine": {
        "metrics": "df74002b3bf9408a94d898a477773fdfc7b69d9f90ad2975ce0ad13aaf1ce764",
        "report": "0212b7980ee5081884b9794cd162e2ea64531a9503a185a27a2b13ea0ca8905c",
        "trace": "fabb7894f753d7d2f6d7f00dad95d2ce43fc73ea79f33b62a20dc121531212e2",
    },
    "htriang:15 sim byzantine-hedge": {
        "metrics": "903e5fb9a5d4fca2d9f470dc8b98db46873f06a1d11775009494fb1fb9d6c65f",
        "report": "c6a7374bef231da7f741c18d723cfcf85a37399c87030f1a5f1dec1b92c53f67",
        "trace": "66acc3dfeefcbceaad37ee937d0fe400eea92ce048951f135523860178143c52",
    },
    "htriang:15 sim default": {
        "metrics": "695f659ff9dbefa5b476ba89f6d4220dd46b5430bc63ceff8319896e05ab1001",
        "report": "3a01d18c4d7b6f96852523a5cb02e6c30e3256c67b7b6ee71d73030d1a858765",
        "trace": "2e51d45d4e59d937527a84e105a94e8ffb26ef4a6174e204c384fa9fed7f16d5",
    },
    "htriang:15 sim deferred-hedge": {
        "metrics": "eb4db6c71187e3af35ac9e6e81fddfe4bec40276aa8a0bed49e1831cb0b8a024",
        "report": "afe04ff897037f6e92992e0ecbce8b8c46b05dfa024b3bb57ee24588063fdcfd",
        "trace": "535042955c451a5598207a082b0b6eb365ffee020f4c3d96c30d8df0126fa552",
    },
    "htriang:15 sim hedge": {
        "metrics": "a28877ecac629b2cf8fd46abb0ca9b0c808361e49a18933b9336d94d0a02a46e",
        "report": "933ec899abcfc5daec512cafc59eb8034dac942f11034b7b0fec231058d201f7",
        "trace": "7327162c718978703b5ae93219130e65fca17635e5e97e49778f077e418c2b5a",
    },
    "htriang:15 sim lease": {
        "metrics": "1442fd3e7526f55d9d1cf341dbf4f3b018b72bf85feadce61cc5afcdf2bb4b14",
        "report": "1a9acce0ee4879838296a5417976d66a613d52202dc4cfde7213783688ddf8a6",
        "trace": "59c7fd1402bab311d1e6f7ed5664d0c960e5ba316d410cda372ee094c792c190",
    },
    "htriang:15 sim partitions": {
        "metrics": "93ea1617197b30ea647f4aab330f87a723c535d3fcc49609e7b25129fe49452c",
        "report": "4ef58d2f3c425bdae9b656ed08d3a45954e8ec7aa991b4bd13d17add8c27f7df",
        "trace": "873312e82a0c57977da5bdf3d6847807d10e9c682d0168d2e0eaed51cddd7ba0",
    },
    "htriang:15 sim rw": {
        "metrics": "badabe65983524457945c872ca09ea2e2a955839b21490469b954daaec9bd7d2",
        "report": "7e265f6d7a6092a19051eb7739452d8914ae3e43911c70ebb314aa9a2c460f1e",
        "trace": "b76c7d79f0492b75c149b74c8cae64911df09f3b1d7a806d75efa731e7e08b7f",
    },
    "majority:5 inprocess byzantine": {
        "metrics": "2b0f8c81f6b58a491182deee546a3040a8e0111ce0c878ca483d304e022d7ce6",
        "report": "9107839cdccf79a65a3b116fc5eb1b079d857d1bb7c62f0b4ee6ca0460e60abb",
        "trace": "48ec4750dc8ad17005a749ce24876f303fbfcc7f78e84b84f9eb79eb6a238738",
    },
    "majority:5 inprocess byzantine-hedge": {
        "metrics": "d7f0fff56732294e968288c1bcb25bfd5593c5b54b493d326c4f75d837873c4f",
        "report": "88f62da353568520636fc318c42e4e6266e7c1b283c4ed7832b2a677683e6708",
        "trace": "686f143c7adba6aac80b5c6eb7117eccec0951243aa25718d0248936665438eb",
    },
    "majority:5 inprocess default": {
        "metrics": "a15d4569ff0ef43036d756ca40614ac59cb0496a3441ef31d876593be02a7358",
        "report": "a0204b8de98f2e0dd4b76415bb778f1ecee785fc9f7c2ace6f717f579db43fb7",
        "trace": "93c24418c8e8ff89d1b9945a9a0878f2e8c76affe0e76694bbdad29d927bb259",
    },
    "majority:5 inprocess deferred-hedge": {
        "metrics": "b1ab3c0dabcbfb1d7666fbee569b39a8962514789f1f3f781be64d6d3da564bb",
        "report": "19caa8bc77e5c759a8254f60b62aca85ea2b9de71319843ccde398558270ac67",
        "trace": "b556f05ec313dce9829b7882e49a75e789cae95d8a44f189710f8b66d92fdcf5",
    },
    "majority:5 inprocess hedge": {
        "metrics": "fa22ebb1be083c48c5195058f694c500ed960d6a1c824b73127f074158df93d8",
        "report": "d012fa7bf819d00bc68dd304b207e0cf8fa306dc58eaf204caa3190f5af885ec",
        "trace": "9a8663ca8326add35427a42286d5a139fc9871140665039a604063c8b29012fb",
    },
    "majority:5 inprocess lease": {
        "metrics": "a5620d8398aa3836bf0751b36e9ecb6f4341091f82361636fbd56d65c9a46fb1",
        "report": "1bffe16ce03749309fc9857b576511ac0f263ecdf7fb20bb8a3cc7c842b23962",
        "trace": "125a9e9c34c62637f550fbb5ac0b42bd8f64e3f9db4bfb29c88a8c718f853ca4",
    },
    "majority:5 inprocess partitions": {
        "metrics": "2127ab4989fca3949a577c29f37dc07221ee35b6a48ead16a90ea0491bcca407",
        "report": "b085f90cd1a7056092a9722991f46afe5a51aa9d9ab52617eb8b0e677cb59b19",
        "trace": "b0e44211fdcb487a6033d144f0199de82f8cac3cad32b225b119b5b5f676c0a2",
    },
    "majority:5 inprocess rw": {
        "metrics": "86e8ada14120cd413a43ac9234b44f50027404622d4ab04e67882ebab915eeeb",
        "report": "c07da6dcce5cc122ce16bf638fb6c18f0e36c1c8dedac78ed53b2cb87a07116e",
        "trace": "ae9bef558e71f5344069e7f3457fa700cd8b90b945b611211a7730d6469bb2bc",
    },
    "majority:5 sim byzantine": {
        "metrics": "5644060560d0768d4313a6c42f99fdddb9dd8bca3dea295e14075f7d37e6c9f7",
        "report": "714c843f5c9d0a0f7a728d6e8fe530194f71be111a8a0e70da46882e995be12b",
        "trace": "53b83e26d40c686c0943bcbd3a9e6a192c72afee74676804b96bcd5da8e2cd0b",
    },
    "majority:5 sim byzantine-hedge": {
        "metrics": "c76edde6b0d424b862e54cca734712a80e90fe1c49e4cc78c821da328c19e2dc",
        "report": "8b4859f517a715e6a0543f296fb24ee6511c4761d27d05b25d7f2f2925c30c81",
        "trace": "9fd6f47f8695f07857105c4c4f9cdd224d3f158661b46a5a2b8e7d51125685f6",
    },
    "majority:5 sim default": {
        "metrics": "f0b7f0c430f9670118d8abe0aa2c01565b4680532f942942613de862df297695",
        "report": "c5944c559636e0ad255571d130a007b58c695938fa1fa7cfac9098c904c2e10e",
        "trace": "f5190c8b119bc290a28017f3e6bb7a6a2e651caa145f1eddba2c34d29d5a836a",
    },
    "majority:5 sim deferred-hedge": {
        "metrics": "bf8200fb2ad5f82cac9832448229352420a94512aaef226aba0d6792e9aebdf3",
        "report": "4de7483ac19d747a4021553bb08a1bd704c2c91154b4ff5f5287c5a0900ef6da",
        "trace": "a8ac2bf3ffbf9a30be71e398c33800de9cef1ea5f0778d29d718e04fa126fc6a",
    },
    "majority:5 sim hedge": {
        "metrics": "17a6a880aac6c4a827626d2540d13f48a6ccc7633c42eadc365244b35e99dd7e",
        "report": "7619651725914758f646f330f38751272ed7f440ce02ae4a74d5bfc051e09cf4",
        "trace": "160977025780efb859de1b9ad506670912fc7edfe020cb493c0a32d8dbc74bb4",
    },
    "majority:5 sim lease": {
        "metrics": "92175da955cb5edaf812f42db68bc1580a1db063635be814f9dd65cb1902fdcd",
        "report": "c253211c31b2a6303c7f4baeee7d6c950ec1592b72ab2661a7d152678014f547",
        "trace": "b30a8da83bf37fabc0dafe9fe1081465aa1100c6be534c51911b8d42fd208cab",
    },
    "majority:5 sim partitions": {
        "metrics": "787742b62569e41f79381080001571285bce3624dab483c57847d796ad0541a5",
        "report": "52f21b071d1793f762199ecec52ca1b092057b44824c71d0999d46eec03dd97d",
        "trace": "dc329ac0eafc079399cfccfb93f6aa825625413d270005024653aba3a3ab4246",
    },
    "majority:5 sim rw": {
        "metrics": "ddff1a11a35aefbb6b5192786a151f0560503df4cded9fc417a62adbf98e24b9",
        "report": "faa0da5fd83bd2d4d1c22dd67c8e2a9c6ed511e31b699a9361a48fbb62e3bbd6",
        "trace": "0f03cf65f109c7ec6b8f769a5a03bd0cdfc9c72c5daa26eeab2944c9dc9c3b58",
    },
}
GOLDEN_INCIDENTS = {
    "incident-010-split-brain": {
        "metrics": "e6dbccb93296ea509b0aee2737d81f6e6ab44403f3eac9b2ddfcc7f4c14fedbe",
        "report": "d2d4fec7934abc9d7cb191348c4301ebb4c266a8ff658358d76c89af9052d610",
        "scorecard": "b23036aa870cdec0d4f5f83227c5dd08a7e6775d789a5690be288c5813b1b28e",
        "trace": "0b46fe999e87f81a2369118d80f9d5a69b63cb5f48c4a3cfb1620a7b95ffc9b2",
    },
    "incident-011-replica-lag-read-repair-storm": {
        "metrics": "71aaa048c4213e12176818a8dd2d6359c22b544d4293952510a3acba052e7b7d",
        "report": "76e95a0275c0cb75f5232d114b2cbf38867b267ce13ad825b8e9f5cee976c74c",
        "scorecard": "f99114d29bb8e61af6a9fd073bbf6fc22a7220fda8491c7d5858dc9ab9d44166",
        "trace": "70984c8d33a0f9e5c498e52ab5ed6147f39481d1548bd902e4e48d971c721207",
    },
    "incident-012-hot-key-zipf": {
        "metrics": "406e8a0c0ecc55461f8d5c9425cd656c87b03252771ecda504656d0a41029823",
        "report": "1ff391dd6ddd373df7702785df1cc5dc91c387d1261c0d01bca3a1174f00840d",
        "scorecard": "a7ab52e0c6e1c4c38675c4a4818fee6bb35388a799559c83bec967655e3f6943",
        "trace": "d4ba492c47c457156fc603cf965d1eee9fb6c7e71890ea073feac54a1a41db5d",
    },
    "incident-015-cache-avalanche": {
        "metrics": "4b0a57a3a156a08c9d2aa70d820705db6b939a364399b219faca58ca74d217cf",
        "report": "2ff6b5713a46542d1add45287c2443d059ed0b2729f48486e6b9acdeaf5fe35e",
        "scorecard": "60581e608e1810df4652a584baeaa18f2cc70f0619d9cc98be3d5322edaa2462",
        "trace": "9bb141c0b925ca86623dfb19493aa0381d5f3fdc9d2cb8613e33fbe9e8aa84d7",
    },
    "net-104-lb-oscillation": {
        "metrics": "fc0c7b3cdb26acc287ab8be0c4a66b19e070bf671b72b9702c11c2ac725cc630",
        "report": "59ab3bd7300bacf127f6f68019fda87d4e2e3fca2f9b470ee836df25ff5cceaa",
        "scorecard": "e49b16e86f0d588ab2f8c1bbcba8495d7716487ab7ec66c72decfe6404bc4393",
        "trace": "3c293fe8f93723545837ab61835dda33b41eb7bbbced22e46af90991a45d3312",
    },
    "obs-103-slo-burn": {
        "metrics": "ec2e6f3dde6abb86ef9e037a8bc160f4bc30ff85bd2e001bc30622cc5b0851ba",
        "report": "97edc9257ba19854495b63965a5a01e78d58010d5250e7bd2d6792dcf1248514",
        "scorecard": "73c4b1ea4734e46f62809a453fa20ba747596d8e3bce26a6c8621330c0c13e6c",
        "trace": "3cb3881d488781de0e49b56da692ea37bd50ff518167a69d115f31bee2b33a7a",
    },
}
GOLDEN_OPEN_LOOP_HEDGE = {
    "metrics": "8788865b7d17450e93f25f60ab0132edcda060d2d25008b53db0c4eae9a97693",
    "report": "df7b3cb4cd657e2808aa516e47f504ff282b8e578baf6fbaaa08dc93f2382f2f",
    "trace": "dbe1ed67213ff2899d12b1274830d6950a43e1aad1470b403492ae69d323b7f7",
}
GOLDEN_RESHARD = {
    "report": "65aaf6dffe49841cc2d1a6f48a20a898bc393d552709f127cc3524d4a73ab342",
    "snapshot": "b66fc7620de10dddddb9ee49de8a7bfc505782a5e3c4afa9894fb8680be62072",
    "trace": "b6f694ea6aec9aa44f619d28a83cf1043f7cd5e018ae951b57fd6c98d330dcdd",
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spec", SYSTEMS)
def test_chaos_digests_are_pinned(spec, mode, config):
    assert chaos_fingerprint(spec, mode, config) == GOLDEN_CHAOS[f"{spec} {mode} {config}"]


@pytest.mark.parametrize("name", INCIDENT_NAMES)
def test_incident_digests_are_pinned(name):
    assert incident_fingerprint(name) == GOLDEN_INCIDENTS[name]


def test_open_loop_deferred_hedge_digests_are_pinned():
    report = run_chaos(build_system("hgrid:4x4"), seed=7, config=OPEN_LOOP_HEDGE, mode="sim")
    assert fingerprint(report) == GOLDEN_OPEN_LOOP_HEDGE


def test_reshard_digests_are_pinned():
    assert reshard_fingerprint() == GOLDEN_RESHARD


# ----------------------------------------------------------------------
# Serving benchmarks: kvbench, the capacity and sharded benchmarks, and
# the open-loop load generator.  Recorded before the harnesses shared a
# workload driver; the driver must reproduce them byte for byte.
# ----------------------------------------------------------------------
KVBENCH_RUNS = {
    "majority:5 crash": dict(ops=400, crash_rate=0.1),
    "htriang:15 crash": dict(ops=400, crash_rate=0.1),
    "grid:4x4 read_write": dict(ops=400, crash_rate=0.1, read_write=True),
}
SHARD_COUNTS = (1, 4)


def kvbench_fingerprint(run: str) -> str:
    spec = run.split()[0]
    report = run_kv_benchmark(build_system(spec), seed=5, **KVBENCH_RUNS[run])
    return digest(report.to_dict())


def capacity_fingerprint() -> str:
    return digest(run_capacity_benchmark(build_system("grid:4x4"), seed=2, ops=300))


def sharded_fingerprint(shards: int) -> str:
    systems = [build_system("majority:5") for _ in range(shards)]
    report = run_sharded_benchmark(
        systems, specs=["majority:5"] * shards, seed=4, ops=400, keys=64
    )
    return digest(report.to_dict())


def open_loop_fingerprint() -> str:
    system = build_system("htriang:15")
    clock = VirtualClock()
    transport = SimTransport(
        make_replicas(system), clock=clock, seed=11, base_latency=0.1, mean_latency=0.3
    )
    config = WorkloadConfig(ops=300, clients=3, arrival="poisson", arrival_rate=600.0)

    async def run():
        try:
            return await run_workload(
                system, transport, optimal_strategy(system), config, seed=6
            )
        finally:
            await transport.close()

    metrics = run_virtual(run(), clock=clock)
    return digest({"metrics": metrics.to_dict(), "arrival": metrics.arrival})


GOLDEN_KVBENCH = {
    "grid:4x4 read_write": "160011338a5fd338c56a9307fbe7268856f418b5b2b098bc3a30af08185bf45b",
    "htriang:15 crash": "c48178ac6e1bef548650298a392f9fcfd4d208baa3ee9ad959dd78b95000c012",
    "majority:5 crash": "83ac2b3fa7c1486703ce34e8972142d6bfce71eae99901b8c79c70988dd6d92f",
}
GOLDEN_CAPACITY = "752ea5e52808757d5762a385900e9eef79a00aa45ba95aaabc02c41ef61fb69f"
GOLDEN_SHARDED = {
    1: "f040d8c1e2920bb56639118e7a144e5a26e8e7b5e519c01f7dc2527d5f61ef59",
    4: "8826090950e6c9e8c86cbe847b1d126270a6b2f4c3b6d047a0b083626f95266a",
}
GOLDEN_OPEN_LOOP = "e12fbc7823d692a6ddb27b879c5e705d07e148eb850c5738038b3b5d7eeeba09"


@pytest.mark.parametrize("run", sorted(KVBENCH_RUNS))
def test_kvbench_digests_are_pinned(run):
    assert kvbench_fingerprint(run) == GOLDEN_KVBENCH[run]


def test_capacity_benchmark_digest_is_pinned():
    assert capacity_fingerprint() == GOLDEN_CAPACITY


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_benchmark_digests_are_pinned(shards):
    assert sharded_fingerprint(shards) == GOLDEN_SHARDED[shards]


def test_open_loop_workload_digest_is_pinned():
    assert open_loop_fingerprint() == GOLDEN_OPEN_LOOP
