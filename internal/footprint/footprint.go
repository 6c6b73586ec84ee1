// Package footprint implements the static memory model behind the
// paper's evaluation of flash and RAM usage (Tables I and II, Fig. 7).
//
// The paper's numbers are link-map sizes of C builds for three MCUs;
// those builds cannot be reproduced on this host, so the model sums
// per-component sizes instead:
//
//   - Component sizes the paper itself reports are used verbatim
//     (pipeline module 1632 B flash / 2137 B RAM; memory module 2024 B
//     flash, §VI-A).
//   - Per-OS bases, network stacks, and crypto-library sizes are
//     calibrated so the totals reproduce every cell of Tables I and II
//     and the deltas of Fig. 7. The split between calibrated components
//     is our estimate; the totals and all cross-configuration
//     comparisons are the paper's.
//   - A small per-build residual absorbs compiler/linker variation the
//     component model cannot express (at most ~0.7 % of a build).
//
// Everything downstream — Fig. 7's comparisons, the ablation sweeps —
// derives structurally from these components, so removing or swapping a
// module changes totals the way relinking would.
package footprint

import (
	"fmt"

	"upkit/internal/platform"
)

// Size is a flash/RAM pair in bytes.
type Size struct {
	Flash int
	RAM   int
}

// Add returns the component-wise sum.
func (s Size) Add(o Size) Size { return Size{s.Flash + o.Flash, s.RAM + o.RAM} }

// Sub returns the component-wise difference.
func (s Size) Sub(o Size) Size { return Size{s.Flash - o.Flash, s.RAM - o.RAM} }

// Component is one linked module with its size contribution.
type Component struct {
	Name string
	Size Size
}

// Build is a linked firmware image: a named set of components plus a
// calibration residual.
type Build struct {
	Name       string
	Components []Component
	Residual   Size
}

// Total sums all components and the residual.
func (b Build) Total() Size {
	sum := b.Residual
	for _, c := range b.Components {
		sum = sum.Add(c.Size)
	}
	return sum
}

// Component returns the size of the named component, or false.
func (b Build) Component(name string) (Size, bool) {
	for _, c := range b.Components {
		if c.Name == name {
			return c.Size, true
		}
	}
	return Size{}, false
}

// UpKit module sizes. Pipeline and memory-module flash are the paper's
// own numbers (§VI-A); the rest are calibrated estimates.
var (
	// sizeFSM is the update-agent finite-state machine (Fig. 4).
	sizeFSM = Size{Flash: 870, RAM: 210}
	// sizePipeline is the 4-stage pipeline; RAM is dominated by the
	// LZSS window buffer (§VI-A: 1632 B flash, 2137 B RAM).
	sizePipeline = Size{Flash: 1632, RAM: 2137}
	// sizeMemory is the memory module: slot handling plus the copy and
	// swap routines (§VI-A: 2024 B flash).
	sizeMemory = Size{Flash: 2024, RAM: 180}
	// sizeVerifier is the shared verifier module (§IV-D).
	sizeVerifier = Size{Flash: 1480, RAM: 320}
)

// cryptoSizes maps library name to linked size. TinyDTLS is ~1.1 kB
// smaller in flash than tinycrypt (Table I); CryptoAuthLib is smaller
// still because ECDSA runs on the ATECC508.
var cryptoSizes = map[string]Size{
	"tinydtls":      {Flash: 5200, RAM: 2080},
	"tinycrypt":     {Flash: 6310, RAM: 2080},
	"cryptoauthlib": {Flash: 3720, RAM: 1950},
}

// bootBase is the OS kernel + flash driver + startup code linked into
// the bootloader build.
var bootBase = map[platform.OS]Size{
	platform.Zephyr:  {Flash: 4340, RAM: 5600},
	platform.RIOT:    {Flash: 6720, RAM: 3932},
	platform.Contiki: {Flash: 6750, RAM: 4057},
}

// bootResiduals absorb per-cell linker variation of Table I.
var bootResiduals = map[platform.OS]map[string]Size{
	platform.Zephyr: {
		"tinydtls":  {Flash: -4, RAM: 0},
		"tinycrypt": {Flash: -3, RAM: 0},
	},
	platform.RIOT: {
		"tinydtls":  {Flash: -4, RAM: 0},
		"tinycrypt": {Flash: 18, RAM: 0},
	},
	platform.Contiki: {
		"tinydtls":      {Flash: 0, RAM: 0},
		"tinycrypt":     {Flash: -18, RAM: 0},
		"cryptoauthlib": {Flash: 104, RAM: 46},
	},
}

// UpKitBootloader models the bootloader build of Table I.
func UpKitBootloader(os platform.OS, lib string) (Build, error) {
	base, ok := bootBase[os]
	if !ok {
		return Build{}, fmt.Errorf("footprint: unknown OS %v", os)
	}
	crypto, ok := cryptoSizes[lib]
	if !ok {
		return Build{}, fmt.Errorf("footprint: unknown crypto library %q", lib)
	}
	if lib == "cryptoauthlib" && os != platform.Contiki {
		return Build{}, fmt.Errorf("footprint: CryptoAuthLib evaluated only on Contiki/CC2650 (§V)")
	}
	return Build{
		Name: fmt.Sprintf("upkit-bootloader/%s+%s", os, lib),
		Components: []Component{
			{"os-base", base},
			{"crypto:" + lib, crypto},
			{"memory-module", sizeMemory},
			{"verifier", sizeVerifier},
		},
		Residual: bootResiduals[os][lib],
	}, nil
}

// Agent network stacks: OS application base plus the pull (IPv6 +
// 6LoWPAN + CoAP) or push (BLE GATT) stack. Calibrated against
// Table II with the fixed UpKit agent core subtracted.
var (
	agentAppBase = map[platform.OS]Size{
		platform.Zephyr:  {Flash: 30000, RAM: 12000},
		platform.RIOT:    {Flash: 18000, RAM: 8000},
		platform.Contiki: {Flash: 12000, RAM: 5000},
	}
	agentPullStack = map[platform.OS]Size{
		platform.Zephyr:  {Flash: 177266, RAM: 58277}, // full IPv6 + Zoap
		platform.RIOT:    {Flash: 66574, RAM: 18317},  // GNRC + libcoap
		platform.Contiki: {Flash: 56239, RAM: 10007},  // uIP + er-coap
	}
	agentPushStack = map[platform.OS]Size{
		platform.Zephyr: {Flash: 40712, RAM: 4929}, // BLE GATT only
	}
)

// agentCore returns UpKit's own agent modules.
func agentCore(lib string) ([]Component, error) {
	crypto, ok := cryptoSizes[lib]
	if !ok {
		return nil, fmt.Errorf("footprint: unknown crypto library %q", lib)
	}
	return []Component{
		{"fsm", sizeFSM},
		{"pipeline", sizePipeline},
		{"memory-module", sizeMemory},
		{"verifier", sizeVerifier},
		{"crypto:" + lib, crypto},
	}, nil
}

// UpKitAgent models the update-agent build of Table II. The paper
// reports TinyDTLS builds; other libraries derive by component swap.
func UpKitAgent(os platform.OS, approach platform.Approach, lib string) (Build, error) {
	base, ok := agentAppBase[os]
	if !ok {
		return Build{}, fmt.Errorf("footprint: unknown OS %v", os)
	}
	var stack Size
	var stackName string
	switch approach {
	case platform.Pull:
		stack, ok = agentPullStack[os]
		stackName = "net:ipv6+coap"
	case platform.Push:
		stack, ok = agentPushStack[os]
		stackName = "net:ble-gatt"
	default:
		return Build{}, fmt.Errorf("footprint: unknown approach %v", approach)
	}
	if !ok {
		return Build{}, fmt.Errorf("footprint: %v agent not available on %v (the paper's push implementation is Zephyr-only, §V)", approach, os)
	}
	core, err := agentCore(lib)
	if err != nil {
		return Build{}, err
	}
	comps := append([]Component{
		{"os-base", base},
		{stackName, stack},
	}, core...)
	return Build{
		Name:       fmt.Sprintf("upkit-agent/%s+%s+%s", os, approach, lib),
		Components: comps,
	}, nil
}

// Portability shares of platform-independent code (§VI-A).
const (
	// BootloaderPortableShare: ~91 % of the bootloader code is
	// platform-independent.
	BootloaderPortableShare = 0.91
	// AgentPortableShare: on average 23.5 % of the agent code is
	// platform-specific.
	AgentPortableShare = 1 - 0.235
)
