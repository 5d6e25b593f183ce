package placement

import (
	"fmt"
	"math"
	"math/rand"
)

// Tenant-size sampling calibrated to the §2.1 measurement: "in a Microsoft
// data center, the mean tenant size is 79 VMs and the largest tenant has
// 1487 VMs" [15, 49]. Sizes follow a log-normal whose mean matches 79 and
// whose upper tail puts the maximum of a ~1500-tenant population near
// 1487 — heavy-tailed, mostly-small tenants with rare giants, the shape
// that motivates convertibility. No binary samples tenants, so the
// sampler lives beside the tests that check it against those figures.

// TenantSizeMean and TenantSizeSigma are the log-normal parameters:
// exp(mu + sigma^2/2) = 79.
const (
	tenantMu    = 3.71
	tenantSigma = 1.15
)

// SampleTenants draws n tenants with log-normal sizes clamped to
// [1, maxSize]. Names are tenant-0..tenant-(n-1).
func SampleTenants(n, maxSize int, seed int64) ([]Tenant, error) {
	if n < 1 || maxSize < 1 {
		return nil, fmt.Errorf("placement: sample %d tenants with max %d", n, maxSize)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tenant, n)
	for i := range out {
		size := int(math.Round(math.Exp(tenantMu + tenantSigma*rng.NormFloat64())))
		if size < 1 {
			size = 1
		}
		if size > maxSize {
			size = maxSize
		}
		out[i] = Tenant{Name: fmt.Sprintf("tenant-%d", i), Size: size}
	}
	return out, nil
}

// FitTenants greedily selects a prefix of the sampled tenants that fits a
// network of the given capacity with the target utilization (0..1],
// dropping tenants that would overflow. It preserves the heavy-tailed
// mix.
func FitTenants(tenants []Tenant, capacity int, utilization float64) []Tenant {
	if utilization <= 0 || utilization > 1 {
		utilization = 0.9
	}
	budget := int(float64(capacity) * utilization)
	var out []Tenant
	used := 0
	for _, t := range tenants {
		if used+t.Size > budget {
			continue
		}
		out = append(out, t)
		used += t.Size
	}
	return out
}
