package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"secureview/internal/solve"
)

// Shard mode routes every request fingerprint over the consistent-hash ring
// and PROXIES non-owned solves to their owner, rather than fetching the
// owner's cached state and solving locally. The tradeoff:
//
//   - Proxying keeps exactly one hot copy of each derived problem in the
//     cluster, costs one hop, and keeps the owner's LRU recency honest —
//     the replica that owns a fingerprint sees all of its traffic.
//   - Fetching would keep solve CPU on the entry replica and tolerate slow
//     owners better, but it duplicates the derived problem on every replica
//     that ever sees the fingerprint: the cache scales per replica again,
//     which is what sharding is meant to fix.
//
// Since the point of the ring is to scale CACHE capacity horizontally, the
// single-hot-copy property wins. Owner failure is absorbed locally: a
// transport error falls back to serving the request on this replica (the
// cache is rebuildable; only locality is lost), counted in stats.

// forwardedHeader marks a proxied request so the owner serves it locally —
// one hop maximum, even with stale or disagreeing ring configurations.
const forwardedHeader = "X-Secureview-Forwarded"

// routeKey derives the ring key for a request, cheap enough to compute
// before any cache work:
//
//   - spec documents route on the cost-EXCLUDED structural fingerprint of
//     the derivation, so an edit chain (same workflow, tweaked costs) pins
//     to one owner, whose Session re-costs its cached problem instead of
//     each replica deriving it again;
//   - generated references route on the literal (class, seed, variant, Γ)
//     tuple — no need to build the instance just to route it.
//
// Unroutable requests (malformed documents, unknown variants) return
// ok=false and are served locally, where the normal resolve path produces
// the client-facing error.
func routeKey(req *SolveRequest) (string, bool) {
	v, err := parseVariant(req.Variant)
	if err != nil {
		return "", false
	}
	switch {
	case req.Spec != nil && req.Generated == nil:
		doc := req.Spec
		if len(doc.GammaPerModule) > 0 {
			return "", false
		}
		w, err := doc.Build()
		if err != nil {
			return "", false
		}
		gamma := req.Gamma
		if gamma == 0 {
			gamma = doc.Gamma
		}
		if gamma == 0 {
			gamma = 2
		}
		return solve.StructuralFingerprint(w, v, gamma), true
	case req.Generated != nil && req.Spec == nil:
		return fmt.Sprintf("gen/%s/%d/%s/%d",
			req.Generated.Class, req.Generated.Seed, variantName(v), req.Gamma), true
	}
	return "", false
}

// routeRemote decides whether req must be served by another replica,
// returning its owner address. Single-node mode, already-forwarded
// requests, unroutable requests and self-owned keys all serve locally.
func (s *Server) routeRemote(r *http.Request, req *SolveRequest) (string, bool) {
	if s.ring == nil {
		return "", false
	}
	if r.Header.Get(forwardedHeader) != "" {
		s.forwarded.Add(1)
		return "", false
	}
	key, ok := routeKey(req)
	if !ok {
		return "", false
	}
	owner := s.ring.Owner(key)
	if owner == s.ring.Self() {
		s.ownedLocal.Add(1)
		return "", false
	}
	return owner, true
}

// forward posts req to the owner's /v1/solve and returns its verbatim
// status and body. Transport errors come back as err; HTTP-level errors are
// the owner's answer and are relayed as-is.
func (s *Server) forward(owner string, req *SolveRequest) (int, []byte, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, owner+"/v1/solve", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, s.ring.Self())
	resp, err := s.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// proxySolve relays a solve to its owner, mirroring the owner's status and
// body to the client. Returns false on transport failure, in which case the
// caller serves the request locally.
func (s *Server) proxySolve(w http.ResponseWriter, owner string, req *SolveRequest) bool {
	status, body, err := s.forward(owner, req)
	if err != nil {
		s.fallbacks.Add(1)
		return false
	}
	s.proxied.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return true
}

// proxyBatchJob relays one batch job to its owner as a single solve and
// folds the answer into a BatchResult. Returns ok=false on transport
// failure (the caller runs the job locally).
func (s *Server) proxyBatchJob(owner string, jr *SolveRequest) (*BatchResult, bool) {
	status, body, err := s.forward(owner, jr)
	if err != nil {
		s.fallbacks.Add(1)
		return nil, false
	}
	s.proxied.Add(1)
	br := &BatchResult{Code: status}
	if status == http.StatusOK || status == http.StatusPartialContent {
		var resp SolveResponse
		if jerr := json.Unmarshal(body, &resp); jerr != nil {
			br.Code = http.StatusBadGateway
			br.Error = fmt.Sprintf("owner %s returned an unparseable response: %v", owner, jerr)
		} else {
			br.Response = &resp
		}
		return br, true
	}
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		br.Error = e.Error
	} else {
		br.Error = fmt.Sprintf("owner %s returned status %d", owner, status)
	}
	return br, true
}
