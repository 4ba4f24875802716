package main

import (
	"sort"

	"micronn"
)

var workloads = []Workload{
	{
		Name:   "ann-disk",
		Shape:  Shape{N: 20000, Dim: 128, Latent: 16, Centers: 16, Spread: 0.8, Noise: 1, Metric: micronn.L2},
		NProbe: 10, Queries: 600,
		Device: micronn.DeviceSmall,
		Mix:    "SFSFSFSFSFSFSFSFSFSFSFSFBH", WriteShare: 0.4,
	},
	{
		Name:   "hybrid-sharded",
		Shape:  Shape{N: 20000, Dim: 128, Latent: 16, Centers: 16, Spread: 0.8, Noise: 1, Metric: micronn.Cosine},
		NProbe: 10, Queries: 600, Shards: 3, Quant: micronn.QuantSQ8,
		Device: micronn.DeviceLarge,
		Mix:    "SFSFSFSFSFHSFSFSFSFSFHB", WriteShare: 0.2,
	},
	{
		Name:   "update-stream",
		Shape:  Shape{N: 20000, Dim: 128, Latent: 16, Centers: 16, Spread: 0.8, Noise: 1, Metric: micronn.L2},
		NProbe: 10, Queries: 600,
		Device: micronn.DeviceSmall, AutoMaintain: true,
		Mix:        "SSFSSFSSFSSFSSFSSFSH" + "SSFSSFSSFSSFSSFSSFSB" + "SSFSSFSSFSSFSSFSSFHB",
		Concurrent: true,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
