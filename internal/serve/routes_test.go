package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestHandlerRoutesMatchDoc keeps Handler's doc-comment route table and
// its mux in step: the documented routes must be exactly the registered
// patterns, and each documented method and path, sent to Handler(),
// must reach a handler rather than the mux's 404 or 405.
func TestHandlerRoutesMatchDoc(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "serve.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Handler" && fd.Recv != nil {
			fn = fd
		}
	}
	if fn == nil || fn.Doc == nil {
		t.Fatal("Server.Handler or its doc comment not found in serve.go")
	}
	routeLine := regexp.MustCompile(`^\s*(GET|POST|PUT|DELETE)\s+(/\S*)`)
	var documented []string
	for _, line := range strings.Split(fn.Doc.Text(), "\n") {
		if m := routeLine.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1]+" "+m[2])
		}
	}
	var registered []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "HandleFunc" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok {
			pattern, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			registered = append(registered, pattern)
		}
		return true
	})
	sort.Strings(documented)
	sort.Strings(registered)
	if strings.Join(documented, "\n") != strings.Join(registered, "\n") {
		t.Fatalf("Handler doc lists\n  %s\nbut the mux registers\n  %s",
			strings.Join(documented, "\n  "), strings.Join(registered, "\n  "))
	}

	ts := httptest.NewServer(New(4).Handler())
	defer ts.Close()
	create, err := http.Post(ts.URL+"/tables", "application/json", strings.NewReader(
		`{"name":"r","toColumns":["x"],"rows":[{"to":[1]},{"to":[2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	create.Body.Close()
	if create.StatusCode != http.StatusCreated {
		t.Fatalf("create table: status %d", create.StatusCode)
	}
	// DELETE last: it drops the table the other routes address.
	sort.SliceStable(documented, func(i, j int) bool {
		return !strings.HasPrefix(documented[i], "DELETE") && strings.HasPrefix(documented[j], "DELETE")
	})
	for _, route := range documented {
		method, path, _ := strings.Cut(route, " ")
		req, err := http.NewRequest(method, ts.URL+strings.ReplaceAll(path, "{name}", "r"), strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed ||
			(resp.StatusCode == http.StatusNotFound && strings.HasPrefix(string(body), "404 page not found")) {
			t.Errorf("%s: the mux answered %d %q", route, resp.StatusCode, body)
		}
	}
}
