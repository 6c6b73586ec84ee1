// Fleet campaign: one release pulled across a heterogeneous fleet —
// the deployment reality the paper's portability argument (§V) is
// about, driven by the campaign worker pool.
//
// The fleet mixes the paper's three hardware platforms, both slot
// configurations, differential and full updates, and one device with a
// degraded radio. Two workers make every device pull v2, and each
// device gets up to two immediate retries.
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"upkit"
)

const imageSize = 64 * 1024

// node is one fleet member and its upkit deployment.
type node struct {
	name string
	dep  *upkit.Deployment
	id   uint32
}

func (n *node) ID() uint32      { return n.id }
func (n *node) Version() uint16 { return n.dep.Device.RunningVersion() }
func (n *node) TryUpdate() (uint16, error) {
	res, err := n.dep.PullUpdate()
	if err != nil {
		return n.dep.Device.RunningVersion(), err
	}
	return res.Version, nil
}

func main() {
	nrf := upkit.NRF52840()
	cc2650 := upkit.CC2650()
	cc2538 := upkit.CC2538()

	specs := []struct {
		name string
		opts upkit.DeploymentOptions
		loss float64
	}{
		{"sensor-01 (nRF52840, A/B, diff)",
			upkit.DeploymentOptions{MCU: &nrf, Mode: upkit.BootAB, Differential: true, DeviceID: 0x1001}, 0},
		{"sensor-02 (nRF52840, static)",
			upkit.DeploymentOptions{MCU: &nrf, Mode: upkit.BootStatic, DeviceID: 0x1002}, 0},
		// 84 KiB is the largest sector-aligned slot A that still fits the
		// CC2650's 128 KiB internal flash next to the bootloader, swap
		// scratch, the two reception-journal sectors, and the two
		// security-counter sectors; slot B spills to the external SPI NOR.
		{"valve-07  (CC2650, ext flash)",
			upkit.DeploymentOptions{MCU: &cc2650, Mode: upkit.BootStatic, SlotBytes: 84 * 1024, DeviceID: 0x1003}, 0},
		{"meter-12  (CC2538, diff)",
			upkit.DeploymentOptions{MCU: &cc2538, Mode: upkit.BootStatic, SlotBytes: 96 * 1024, Differential: true, DeviceID: 0x1004}, 0},
		{"meter-13  (CC2538, lossy radio)",
			upkit.DeploymentOptions{MCU: &cc2538, Mode: upkit.BootStatic, SlotBytes: 96 * 1024, DeviceID: 0x1005}, 0.08},
	}

	v1 := upkit.MakeFirmware("fleet-v1", imageSize)
	v2 := upkit.DeriveOSChange(v1) // a realistic OS upgrade

	nodes := make([]*node, len(specs))
	updaters := make([]upkit.FleetUpdater, len(specs))
	for i, s := range specs {
		s.opts.Approach = upkit.Pull
		s.opts.Seed = fmt.Sprintf("fleet-%x", s.opts.DeviceID)
		dep, err := upkit.NewDeployment(s.opts, v1)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		if err := dep.PublishVersion(2, v2); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		if s.loss > 0 {
			dep.Link.SetLoss(s.loss, int64(s.opts.DeviceID))
		}
		nodes[i] = &node{name: s.name, dep: dep, id: s.opts.DeviceID}
		updaters[i] = nodes[i]
	}

	fmt.Printf("campaign: v1 -> v2 across %d devices (2 workers, up to 2 retries)\n\n", len(nodes))
	campaign, err := upkit.NewCampaign(2, upkit.CampaignPolicy{
		Parallelism: 2,
		MaxRetries:  2,
	}, updaters)
	if err != nil {
		log.Fatal(err)
	}
	report, err := campaign.Run()
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	fmt.Println(report.Render())

	fmt.Println()
	for _, n := range nodes {
		m := n.dep.Device.Manifest()
		payload := "full image"
		if m != nil && m.IsDifferential() {
			payload = fmt.Sprintf("patch (%d B)", m.PatchSize)
		}
		fmt.Printf("%-34s v%d  %-16s  virtual time %6.1fs\n",
			n.name, n.Version(), payload, n.dep.Device.Clock.Now().Seconds())
	}
}
