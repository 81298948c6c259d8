package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMetricsObserveAndRender(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 10; i++ {
		m.Observe("observe", http.StatusOK, time.Duration(i+1)*time.Millisecond)
	}
	m.Observe("observe", http.StatusBadRequest, 50*time.Microsecond)
	m.Observe("advise", http.StatusOK, 2*time.Second)
	m.Observe("advise", http.StatusOK, 20*time.Second) // above the last edge

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, needle := range []string{
		`filecule_server_requests_total{route="observe",code="200"} 10`,
		`filecule_server_requests_total{route="observe",code="400"} 1`,
		`filecule_server_requests_total{route="advise",code="200"} 2`,
		`filecule_server_request_seconds_count{route="observe"} 11`,
		`filecule_server_request_seconds_count{route="advise"} 2`,
		`filecule_server_request_seconds_bucket{route="advise",le="+Inf"} 2`,
		`filecule_server_request_seconds_quantile{route="observe",quantile="0.5"}`,
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("prometheus output missing %q\n%s", needle, out)
		}
	}

	// The 11 observe samples fill the buckets up to le=0.0025 with 3 and
	// le=0.005 with 3 more (3, 4 and 5ms), so rank 5.5 interpolates to
	// 2.5ms + 2.5ms × 2.5/3. Advise's rank 1.8 of 2 lies above its last
	// finite bucket, which reads as the top edge.
	for _, tc := range []struct {
		route, q string
		want     float64
	}{
		{"observe", "0.5", 0.0025 + 0.0025*2.5/3},
		{"advise", "0.5", 2.5},
		{"advise", "0.9", 10},
	} {
		prefix := fmt.Sprintf("filecule_server_request_seconds_quantile{route=%q,quantile=%q} ", tc.route, tc.q)
		got := math.NaN()
		for _, line := range strings.Split(out, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				got, _ = strconv.ParseFloat(v, 64)
			}
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s p%s = %v, want %v", tc.route, tc.q, got, tc.want)
		}
	}
}

func TestMetricsBucketsCumulative(t *testing.T) {
	m := NewMetrics()
	m.Observe("r", 200, 300*time.Microsecond) // falls in le=0.0005
	m.Observe("r", 200, 40*time.Millisecond)  // falls in le=0.05
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, needle := range []string{
		`filecule_server_request_seconds_bucket{route="r",le="0.00025"} 0`,
		`filecule_server_request_seconds_bucket{route="r",le="0.0005"} 1`,
		`filecule_server_request_seconds_bucket{route="r",le="0.025"} 1`,
		`filecule_server_request_seconds_bucket{route="r",le="0.05"} 2`,
		`filecule_server_request_seconds_bucket{route="r",le="10"} 2`,
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("prometheus output missing %q\n%s", needle, out)
		}
	}
}
