package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// AtomicWrite polices the sharestore's durability discipline. Every
// live file in a store (chunks, indexes, manifests, delta logs) must be
// produced so that a crash at any instruction leaves something recovery
// can trust (docs/ARCHITECTURE.md). The discipline lives in blessed
// helpers: atomicWriteFile (tmp + rename) alone replaces a file,
// patchChunk alone writes into a live chunk where it lies, and
// appendDeltaRecord alone appends to a live delta log file. No column
// directory is ever renamed: an upload commits by the manifest write.
// The analyzer flags any other direct os.Create / os.WriteFile /
// os.Rename call in the package, any os.OpenFile whose flags are not
// provably read-only, and any (*os.File).Write / WriteAt / WriteString,
// plus ignored error returns from Close, Sync or Rename (a swallowed
// error there silently converts "durable" into "probably"). Audited
// sites — the Close of a file only read, the quarantine move of a whole
// table directory — carry //prism:allow atomicwrite.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "sharestore file writes must go through the blessed tmp+rename and in-place helpers, with no swallowed Close/Sync/Rename errors",
	Run:  runAtomicWrite,
}

// blessedWriters are the sharestore functions allowed to touch
// os.WriteFile/os.Create/os.Rename directly: they ARE the atomic-write
// discipline.
var blessedWriters = map[string]bool{"atomicWriteFile": true}

// blessedInPlace are the sharestore functions allowed to open a live
// file for writing and write into it where it lies. patchChunk writes a
// chunk's new header CRC before its cells, so RollForward can finish a
// chunk a crash tore mid-patch. appendDeltaRecord writes each delta log
// record with one append to the end of the table's log file and cuts a
// failed one off again, so a crash can tear only the newest file's last
// record — an update never acknowledged, which the boot read cuts off.
var blessedInPlace = map[string]bool{"patchChunk": true, "appendDeltaRecord": true}

// rawWriteFuncs are the os entry points that create or replace file
// contents.
var rawWriteFuncs = map[string]bool{"Create": true, "WriteFile": true, "Rename": true}

// fileWriteMethods are the *os.File methods that write file contents.
var fileWriteMethods = map[string]bool{"Write": true, "WriteAt": true, "WriteString": true}

func runAtomicWrite(pass *Pass) error {
	if pass.Pkg.Path != storePath {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			replaces, inPlace := blessedWriters[fd.Name.Name], blessedInPlace[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						checkIgnoredDurabilityError(pass, call, "")
					}
				case *ast.DeferStmt:
					checkIgnoredDurabilityError(pass, n.Call, "deferred ")
				case *ast.GoStmt:
					checkIgnoredDurabilityError(pass, n.Call, "spawned ")
				case *ast.CallExpr:
					obj := calleeObject(info, n)
					if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
						return true
					}
					switch {
					case !replaces && rawWriteFuncs[obj.Name()]:
						pass.Reportf(n.Pos(), "direct os.%s outside the blessed atomic-write helpers; use atomicWriteFile so a crash cannot tear the file", obj.Name())
					case !inPlace && obj.Name() == "OpenFile" && !readOnlyFlags(info, obj.Pkg(), n):
						pass.Reportf(n.Pos(), "write-mode os.OpenFile outside the blessed in-place helpers patchChunk and appendDeltaRecord; a write into a live file must keep it recoverable at every crash point")
					case !inPlace && fileWriteMethods[obj.Name()] && isOSFileMethod(obj):
						pass.Reportf(n.Pos(), "(*os.File).%s outside the blessed in-place helpers patchChunk and appendDeltaRecord; a write into a live file must keep it recoverable at every crash point", obj.Name())
					}
				}
				return true
			})
		}
	}
	return nil
}

// readOnlyFlags reports whether an os.OpenFile call's flag argument is a
// constant with none of the os package's write, create, truncate or
// append bits set. A flag computed at run time cannot be proven
// read-only and is not.
func readOnlyFlags(info *types.Info, osPkg *types.Package, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	flags, ok := constant.Int64Val(tv.Value)
	if !ok {
		return false
	}
	for _, name := range []string{"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC"} {
		c, isConst := osPkg.Scope().Lookup(name).(*types.Const)
		if !isConst {
			return false
		}
		if bit, ok := constant.Int64Val(c.Val()); !ok || flags&bit != 0 {
			return false
		}
	}
	return true
}

// checkIgnoredDurabilityError flags a call whose error result is
// discarded when that error is load-bearing for durability: Close/Sync
// on an *os.File and os.Rename/os.Remove-family calls.
func checkIgnoredDurabilityError(pass *Pass, call *ast.CallExpr, how string) {
	obj := calleeObject(pass.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	name := obj.Name()
	switch {
	case obj.Pkg().Path() == "os" && name == "Rename":
		pass.Reportf(call.Pos(), "%sos.Rename with its error discarded; a failed rename means the live file was never replaced", how)
	case (name == "Close" || name == "Sync") && isOSFileMethod(obj):
		pass.Reportf(call.Pos(), "%s%s on an os.File with its error discarded; write errors surface at Close/Sync and dropping them forfeits durability", how, name)
	}
}

// isOSFileMethod reports whether obj is a method of os.File.
func isOSFileMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedStruct(sig.Recv().Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}
