package footprint

import "upkit/internal/platform"

// Baseline builds for Fig. 7. Each baseline is modelled with the same
// component vocabulary so the comparisons decompose: mcuboot and UpKit
// share the OS base and crypto library and differ in their own modules;
// LwM2M and mcumgr share the network stack with the corresponding UpKit
// agent configuration.

// MCUBootBootloader models mcuboot configured like Fig. 7a: Zephyr,
// ECDSA/secp256r1 + SHA-256 via tinycrypt. Its image-validation and
// swap machinery is larger than UpKit's memory + verifier modules by
// the paper's measured 1600 B flash / 716 B RAM.
func MCUBootBootloader() Build {
	return Build{
		Name: "mcuboot/zephyr+tinycrypt",
		Components: []Component{
			{"os-base", bootBase[platform.Zephyr]},
			{"crypto:tinycrypt", cryptoSizes["tinycrypt"]},
			{"bootutil-validate", Size{Flash: 2260, RAM: 610}},
			{"bootutil-swap", Size{Flash: 2844, RAM: 606}},
		},
		Residual: Size{Flash: -3, RAM: 0},
	}
}

// LwM2MAgent models the Zephyr LwM2M client of Fig. 7b with every
// non-update service disabled, as the paper does for fairness. It
// carries the same IPv6 + CoAP stack as UpKit's pull agent, but its
// M2M object machinery outweighs UpKit's update core by 4.8 kB flash
// and 2.4 kB RAM.
func LwM2MAgent() Build {
	return Build{
		Name: "lwm2m/zephyr+tinydtls",
		Components: []Component{
			{"os-base", agentAppBase[platform.Zephyr]},
			{"net:ipv6+coap", agentPullStack[platform.Zephyr]},
			{"lwm2m-engine", Size{Flash: 7210, RAM: 3530}},
			{"lwm2m-firmware-object", Size{Flash: 3596, RAM: 1717}},
			{"crypto:tinydtls", cryptoSizes["tinydtls"]},
		},
	}
}

// MCUMgrAgent models the Zephyr mcumgr SMP server of Fig. 7c with file
// system, logging, and OS-management groups disabled. It performs no
// verification, so no crypto library is linked; UpKit's push agent is
// still 426 B smaller in flash (mcumgr's SMP framing is heavy) while
// using 1200 B more RAM (the pipeline's LZSS window).
func MCUMgrAgent() Build {
	return Build{
		Name: "mcumgr/zephyr",
		Components: []Component{
			{"os-base", agentAppBase[platform.Zephyr]},
			{"net:ble-gatt", agentPushStack[platform.Zephyr]},
			{"smp-server", Size{Flash: 6104, RAM: 2112}},
			{"img-mgmt", Size{Flash: 5528, RAM: 1615}},
		},
	}
}
