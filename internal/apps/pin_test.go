package apps_test

// Output pins: every send-deterministic program in this package, run
// failure-free under native and under HydEE at np 1, 6 and 16, must keep
// its makespan, application send count and bytes, checkpoint volume and
// per-rank results. A refactor of the kernels that moves a salt, a tag, a fold or a wire
// size shows up here before it shows up in a benchmark digest.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

type pinned struct {
	makespan int64
	sends    int64
	bytes    int64
	ckpt     int64
	results  uint64
}

// pinPrograms builds each pinned program for a run at np ranks.
var pinPrograms = []struct {
	name string
	make func(np int) (mpi.Program, error)
}{
	{"bt", kernelPin("bt")},
	{"cg", kernelPin("cg")},
	{"ft", kernelPin("ft")},
	{"lu", kernelPin("lu")},
	{"mg", kernelPin("mg")},
	{"sp", kernelPin("sp")},
	{"ring", func(int) (mpi.Program, error) { return apps.Ring(5, 1024), nil }},
	{"stencil", func(int) (mpi.Program, error) { return apps.Stencil2D(5, 2048), nil }},
	{"randomdag", func(int) (mpi.Program, error) { return apps.RandomDAG(7, 5, 3, 512), nil }},
}

func kernelPin(name string) func(np int) (mpi.Program, error) {
	return func(np int) (mpi.Program, error) {
		k, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		return k.Make(apps.Params{NP: np, Iters: 3})
	}
}

// pinRun runs prog at np under native or under HydEE over two contiguous
// clusters (one at np 1) checkpointing every second step.
func pinRun(t *testing.T, prog mpi.Program, np int, hydee bool) pinned {
	t.Helper()
	cfg := mpi.Config{NP: np, Model: netmodel.Myrinet10G(), Protocol: rollback.Native()}
	if hydee {
		assign := make([]int, np)
		for r := range assign {
			assign[r] = r * 2 / np
		}
		cfg.Protocol, cfg.Topo, cfg.CheckpointEvery = core.New(), rollback.NewTopology(assign), 2
	}
	res, err := mpi.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprint(h, res.Results...)
	return pinned{int64(res.Makespan), res.Totals.AppSends, res.Totals.AppBytes, res.Totals.CkptBytes, h.Sum64()}
}

// pins is keyed "program/protocol/np": makespan (ns), AppSends, AppBytes,
// CkptBytes, and the FNV-1a hash of the printed Results.
var pins = map[string]pinned{
	"bt/native/1":         {93000000, 0, 0, 0, 0x129550ff269c4c8},
	"bt/native/6":         {124290972, 102, 222480480, 0, 0x693cf370edc91a01},
	"bt/native/16":        {124335264, 282, 593281440, 0, 0xd5452138da640792},
	"bt/hydee/1":          {93000000, 0, 0, 24720000, 0x129550ff269c4c8},
	"bt/hydee/6":          {124396676, 102, 222480480, 197760128, 0x693cf370edc91a01},
	"bt/hydee/16":         {124439364, 282, 593281440, 461440064, 0xd5452138da640792},
	"cg/native/1":         {30000000, 0, 0, 0, 0x67ed68264247e0f},
	"cg/native/6":         {35443657, 102, 28800480, 0, 0xd2fd25aba0f62e8},
	"cg/native/16":        {35522113, 312, 93601440, 0, 0x1a6f0b5a4014eec},
	"cg/hydee/1":          {30000000, 0, 0, 4500000, 0x67ed68264247e0f},
	"cg/hydee/6":          {35464581, 102, 28800480, 34200128, 0xd2fd25aba0f62e8},
	"cg/hydee/16":         {35548221, 312, 93601440, 81600064, 0x1a6f0b5a4014eec},
	"ft/native/1":         {900000000, 0, 0, 0, 0x854864398b3aac8c},
	"ft/native/6":         {1181657180, 120, 2010000210, 0, 0x391f49fefb96c5e5},
	"ft/native/16":        {1217100955, 810, 6030000720, 0, 0x98e9b813b5b10355},
	"ft/hydee/1":          {900000000, 0, 0, 134000000, 0x854864398b3aac8c},
	"ft/hydee/6":          {1183273238, 120, 2010000210, 1608000052, 0x391f49fefb96c5e5},
	"ft/hydee/16":         {1218923553, 810, 6030000720, 4288000032, 0x98e9b813b5b10355},
	"lu/native/1":         {36000000, 0, 0, 0, 0xb897d0a425dff4d3},
	"lu/native/6":         {44169736, 702, 49344480, 0, 0xd8e5372f57d68f2a},
	"lu/native/16":        {51943550, 2394, 157825440, 0, 0x9e7b8b481e0f8d05},
	"lu/hydee/1":          {36000000, 0, 0, 2192000, 0xb897d0a425dff4d3},
	"lu/hydee/6":          {44259648, 702, 49344480, 19680128, 0xd8e5372f57d68f2a},
	"lu/hydee/16":         {52046880, 2394, 157825440, 43776064, 0x9e7b8b481e0f8d05},
	"mg/native/1":         {41999994, 0, 0, 0, 0x10e44acfaff5062d},
	"mg/native/6":         {52887408, 246, 75600240, 0, 0x66fadfff11649c10},
	"mg/native/16":        {55694448, 954, 252000720, 0, 0x672d76487edfc981},
	"mg/hydee/1":          {41999994, 0, 0, 4000000, 0x10e44acfaff5062d},
	"mg/hydee/6":          {52983522, 246, 75600240, 49200064, 0x66fadfff11649c10},
	"mg/hydee/16":         {55735560, 954, 252000720, 97600032, 0x672d76487edfc981},
	"sp/native/1":         {105000000, 0, 0, 0, 0x129550ff269c4c8},
	"sp/native/6":         {140697696, 102, 253944480, 0, 0x693cf370edc91a01},
	"sp/native/16":        {140741988, 282, 677185440, 0, 0xd5452138da640792},
	"sp/hydee/1":          {105000000, 0, 0, 28216000, 0x129550ff269c4c8},
	"sp/hydee/6":          {140801192, 102, 253944480, 217632128, 0x693cf370edc91a01},
	"sp/hydee/16":         {140843880, 282, 677185440, 515904064, 0xd5452138da640792},
	"ring/native/1":       {0, 0, 0, 0, 0x53677da46c4ed5a7},
	"ring/native/6":       {29580, 30, 30720, 0, 0x42c52ec57b55401c},
	"ring/native/16":      {29580, 80, 81920, 0, 0xb1c68359d80d515d},
	"ring/hydee/1":        {0, 0, 0, 1206, 0x53677da46c4ed5a7},
	"ring/hydee/6":        {42080, 30, 30720, 17260, 0x42c52ec57b55401c},
	"ring/hydee/16":       {44600, 80, 81920, 29540, 0xb1c68359d80d515d},
	"stencil/native/1":    {0, 0, 0, 0, 0xd067fa54b53e67b8},
	"stencil/native/6":    {140420, 120, 245760, 0, 0x6b38b210b330f1bf},
	"stencil/native/16":   {140420, 320, 655360, 0, 0xc4ad6a14c9589ae2},
	"stencil/hydee/1":     {0, 0, 0, 1278, 0xd067fa54b53e67b8},
	"stencil/hydee/6":     {153535, 120, 245760, 147456, 0x6b38b210b330f1bf},
	"stencil/hydee/16":    {159626, 320, 655360, 196608, 0xc4ad6a14c9589ae2},
	"randomdag/native/1":  {0, 0, 0, 0, 0x45da581a94917f59},
	"randomdag/native/6":  {28680, 31, 15872, 0, 0x42003616be9f6101},
	"randomdag/native/16": {29436, 115, 58880, 0, 0xaed39fcdb9eedab1},
	"randomdag/hydee/1":   {0, 0, 0, 1270, 0x45da581a94917f59},
	"randomdag/hydee/6":   {39370, 31, 15872, 14112, 0x42003616be9f6101},
	"randomdag/hydee/16":  {44052, 115, 58880, 41733, 0xaed39fcdb9eedab1},
}

func TestProgramOutputsPinned(t *testing.T) {
	for _, p := range pinPrograms {
		for _, proto := range []string{"native", "hydee"} {
			for _, np := range []int{1, 6, 16} {
				key := fmt.Sprintf("%s/%s/%d", p.name, proto, np)
				prog, err := p.make(np)
				if err != nil {
					t.Fatal(err)
				}
				got := pinRun(t, prog, np, proto == "hydee")
				if want, ok := pins[key]; !ok || got != want {
					t.Errorf("%s: got %#v, want %#v", key, got, want)
				}
			}
		}
	}
}
