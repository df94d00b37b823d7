package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	apiv1 "powerstack/api/v1"
)

// decodeSeeds returns the fuzz seeds for FuzzDecodeRequests: every pinned
// encoding of the api/v1 golden table (read from its source, so the seeds
// follow the wire contract) and every request body of the
// FuzzServiceRequests corpus.
func decodeSeeds(t testing.TB) []string {
	t.Helper()
	var seeds []string
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "..", "api", "v1", "types_test.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "golden" {
			return true
		}
		ast.Inspect(vs, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`{") {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				seeds = append(seeds, s)
			}
			return true
		})
		return false
	})
	if len(seeds) == 0 {
		t.Fatal("no golden encodings found in api/v1/types_test.go")
	}

	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzServiceRequests", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			bodies, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			seeds = append(seeds, strings.Split(bodies, "\n")...)
		}
	}
	return seeds
}

// decodeRoundTrip decodes body as a T through the handlers' decode and,
// when that succeeds, checks that the value re-encodes and decodes to an
// equal value.
func decodeRoundTrip[T any](t *testing.T, body []byte) {
	v, err := decode[T](httptest.NewRequest("POST", "/v1/x", bytes.NewReader(body)))
	if err != nil {
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: decoded value does not encode: %v", *v, err)
	}
	back, err := decode[T](httptest.NewRequest("POST", "/v1/x", bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("%T: re-encoding %s does not decode: %v", *v, enc, err)
	}
	if !reflect.DeepEqual(v, back) {
		t.Fatalf("%T: round trip changed the value:\n first  %+v\n second %+v", *v, *v, *back)
	}
}

// FuzzDecodeRequests feeds arbitrary bytes through decode for every request
// type the /v1 handlers decode, with no instance behind them: nothing may
// panic, and whatever decodes must survive an encode/decode round trip.
func FuzzDecodeRequests(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeRoundTrip[apiv1.SubmitRequest](t, body)
		decodeRoundTrip[apiv1.TenantQuotaRequest](t, body)
		decodeRoundTrip[apiv1.BudgetSwapRequest](t, body)
		decodeRoundTrip[apiv1.PolicySwapRequest](t, body)
	})
}
