package dpspatial

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// mechanismDigests pins every mechanism's outputs at ε = 2.1 on three
// grids: one SHA-256 over the bits of EstimateHist's mass, the DPA2 blob
// AccumulateHist fills and the scheme. At d = 1 CFO and AHEAD refuse to
// build (each needs two cells), so those two cases pin the error text
// instead.
var mechanismDigests = map[string]string{
	"DAM d=1":           "13052ab94ec12d750b2badc1763b87a042a6db00ccc6a6c70c652458816882ad",
	"DAM d=4":           "385edfde7624ee88b9f04ee739b5cbff2420069b9b3994ce21b23c47c27477ed",
	"DAM d=9":           "1f52c2685384cb3ddb1a1037cefde51ce829aa026aeb227c1861e6a153c69b8b",
	"DAM-NS d=1":        "1c4158b31422c14a6e97a8150b9910e0c8d0e7420db0563cb1f78775fc6fe81e",
	"DAM-NS d=4":        "00b4a3a44854336eae12d17c65cb3ed383642e29a84c4e99e331d0af56b48d1d",
	"DAM-NS d=9":        "f50254e5c16f45de0689f7b51f528f08dd19d0a465ebed69521c93756a1bb3c2",
	"HUEM d=1":          "a6b7645d65c91a0a3226697e6684697c2b323c30e78dacbf24ca045a968da7c6",
	"HUEM d=4":          "1c89558a51456e2d50f424cb8d231724184b7d0b1d7618284b408834e8869998",
	"HUEM d=9":          "97528c4ff2cd98e2d95e507b62fc23ce1982c4b7c7176ad70f27ac9bfc1a9c7d",
	"MDSW d=1":          "b010abdb462470d4febab66aaf0707795d67189e70132765e890411b72293500",
	"MDSW d=4":          "58f238a7c57a1aee682891b4bdd9527a2d73bb812bc664ee22a07c00d6a9a999",
	"MDSW d=9":          "9c3c9dca40ab5a72c3cbe62ad243693e8756a74e53bafa5e8e0d4b5d45b6b2c3",
	"SEM-Geo-I d=1":     "a3c36041bfb313d91ef876dd8e500ba6394f03ddbf0bc615fe22052c2fb719fa",
	"SEM-Geo-I d=4":     "41f4c1abee50b34e74ddf3e6bb4a9ef9216f8ceae685ecd86d98653a7a791dd6",
	"SEM-Geo-I d=9":     "fa2528f8730ce5a2b8ebdf7335bcfbc2d24f6c357f05baa82b3515af313020d3",
	"CFO d=1":           "error: baselines: CFO needs at least 2 cells",
	"CFO d=4":           "7fad08186b72852f4df26d0d45c652ffc13f58be0b02b9547cf635c150c0ea79",
	"CFO d=9":           "63c0a760e5f3670b70e5ae32d8fb4a11dc40e7f63804a574e1b07e3c7951fdea",
	"PlanarLaplace d=1": "f8ce96bae032cf799e5d5191cc4e73628581d8c290c65505c0e5a6c1e1c9805a",
	"PlanarLaplace d=4": "edfdccc49d8315ac1fcd2fb6929aab9e38a425bfbfdab1f9be5ac5801a9d7ed1",
	"PlanarLaplace d=9": "5242a780a1318e30629d5271b3c420dd3a6d87457152525518dbd971255543ed",
	"AHEAD d=1":         "error: rangequery: AHEAD needs at least 2 cells",
	"AHEAD d=4":         "dccb6eaf5694747e4a8d16f794ff967b4d5970f69d330458ca64e160aad4432d",
	"AHEAD d=9":         "4db608a9b627b1c9dd8a5322f8369e8a207be194adc1e26d845ceaacf6741f33",
	"LDPTrace d=1":      "a3ebecd7b13ba9730511fa283fb5273d282acabe62630cab93c17bdf33e801d5",
	"LDPTrace d=4":      "83d0cd44041f9f2dcdb6326e3625468e146525ea215918225d943bd3f90eaa38",
	"LDPTrace d=9":      "e0f76d1e5bcc303a11b67d8ff441c66f42b71dc995752d16a80ec35a38b37982",
	"PivotTrace d=1":    "cccf7d0aa79fc7228255a1f726f614f2a03286a0f0d3d4a9088ae3caeda68714",
	"PivotTrace d=4":    "84b104e901d4659a09a462d031c1fc481dfa39fc02d716b8578ef1eae2e7f7bc",
	"PivotTrace d=9":    "58a84286682759f1448e6fd7b498d9de88e68e194518329039c411f8a99aacc7",
}

// TestMechanismDigests holds every mechanism's report stream, aggregate
// blob, scheme and estimate to recorded bits, so a refactor of the
// mechanisms must keep all four. The digests depend on float rounding,
// which the recorded values fix for amd64.
func TestMechanismDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; float rounding on %s may differ", runtime.GOARCH)
	}
	for _, name := range MechanismNames() {
		for _, d := range []int{1, 4, 9} {
			key := fmt.Sprintf("%s d=%d", name, d)
			got, err := mechanismDigest(name, d)
			if err != nil {
				got = "error: " + err.Error()
			}
			if want, ok := mechanismDigests[key]; !ok || got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}

func mechanismDigest(name string, d int) (string, error) {
	dom, err := NewDomain(0, 0, 1, d)
	if err != nil {
		return "", err
	}
	m, err := NewMechanism(name, dom, 2.1)
	if err != nil {
		return "", err
	}
	rm, err := AsReporting(m)
	if err != nil {
		return "", err
	}
	truth := &Histogram{Dom: dom, Mass: make([]float64, dom.NumCells())}
	for i := range truth.Mass {
		truth.Mass[i] = float64(3 + (i*7)%23)
	}
	est, err := rm.EstimateHist(truth, NewRand(41))
	if err != nil {
		return "", err
	}
	agg := rm.NewAggregate()
	if err := AccumulateHist(rm, agg, truth, NewRand(43)); err != nil {
		return "", err
	}
	blob, err := agg.MarshalBinary()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, v := range est.Mass {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	h.Write(blob)
	h.Write([]byte(rm.Scheme()))
	return hex.EncodeToString(h.Sum(nil)), nil
}
