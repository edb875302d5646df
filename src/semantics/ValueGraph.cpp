//===- semantics/ValueGraph.cpp -------------------------------------------===//

#include "semantics/ValueGraph.h"

using namespace monsem;

namespace {

// Object record kinds. Part of the checkpoint wire format (DESIGN.md);
// values must never be renumbered within a format version.
enum : uint8_t {
  ObjStr = 1,
  ObjCell = 2,
  ObjClosure = 3,
  ObjThunk = 4,
  ObjPrimPartial = 5,
  ObjEnvNode = 6,
  ObjEnvFrame = 7,
  ObjVMClosure = 8,
};

// Value encodings. Deliberately distinct from ValueKind so the in-memory
// enum can evolve without changing the format.
enum : uint8_t {
  ValUnit = 0,
  ValInt = 1,
  ValBool = 2,
  ValStr = 3,
  ValNil = 4,
  ValCell = 5,
  ValClosure = 6,
  ValPrim1 = 7,
  ValPrim2 = 8,
  ValPrim2Partial = 9,
  ValThunk = 10,
  ValCompiledClosure = 11,
};

// Closure env discriminants on the wire. 1 was the named-chain env of a
// closure over EnvNodes, which no writer produces any more.
enum : uint8_t { EnvNone = 0, EnvFlat = 2 };

constexpr uint8_t kMaxPrim1 = static_cast<uint8_t>(Prim1Op::Abs);
constexpr uint8_t kMaxPrim2 = static_cast<uint8_t>(Prim2Op::Max);

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

uint32_t ValueGraphWriter::idOf(uint8_t Kind, const void *Ptr) {
  if (!Ptr)
    return 0;
  auto [It, New] = ObjectIds.emplace(Ptr, NumObjects + 1);
  if (New) {
    ++NumObjects;
    Worklist.push_back(Pending{Kind, Ptr});
  }
  return It->second;
}

uint32_t ValueGraphWriter::idOfEnvNode(const EnvNode *N) {
  return idOf(ObjEnvNode, N);
}
uint32_t ValueGraphWriter::idOfEnvFrame(const EnvFrame *F) {
  if (F && !Shapes)
    fail("flat environment frame in a graph without a shape table");
  return idOf(ObjEnvFrame, F);
}
uint32_t ValueGraphWriter::idOfThunk(const Thunk *T) {
  return idOf(ObjThunk, T);
}

void ValueGraphWriter::encodeExprRef(Serializer &S, const Expr *E) {
  if (!E) {
    S.writeU32(0);
    return;
  }
  if (!Exprs) {
    fail("expression reference in a graph without an expression table");
    S.writeU32(0);
    return;
  }
  uint32_t Id = Exprs->idOf(E);
  if (!Id)
    fail("expression is not part of the checkpointed program tree");
  S.writeU32(Id);
}

void ValueGraphWriter::writeExprRef(const Expr *E) { encodeExprRef(Roots, E); }

void ValueGraphWriter::encodeValue(Serializer &S, Value V) {
  switch (V.kind()) {
  case ValueKind::Unit:
    S.writeU8(ValUnit);
    return;
  case ValueKind::Int:
    // Always the full 64-bit integer: the reader re-picks inline vs boxed
    // int64 (Value::mkInt(V, Arena)), so the encoding never leaks into
    // the file.
    S.writeU8(ValInt);
    S.writeI64(V.asInt());
    return;
  case ValueKind::Bool:
    S.writeU8(ValBool);
    S.writeBool(V.asBool());
    return;
  case ValueKind::Str:
    S.writeU8(ValStr);
    S.writeU32(idOf(ObjStr, &V.asStr()));
    return;
  case ValueKind::Nil:
    S.writeU8(ValNil);
    return;
  case ValueKind::Cell:
    S.writeU8(ValCell);
    S.writeU32(idOf(ObjCell, V.asCell()));
    return;
  case ValueKind::Closure:
    S.writeU8(ValClosure);
    S.writeU32(idOf(ObjClosure, V.asClosure()));
    return;
  case ValueKind::Prim1:
    S.writeU8(ValPrim1);
    S.writeU8(static_cast<uint8_t>(V.asPrim1()));
    return;
  case ValueKind::Prim2:
    S.writeU8(ValPrim2);
    S.writeU8(static_cast<uint8_t>(V.asPrim2()));
    return;
  case ValueKind::Prim2Partial:
    S.writeU8(ValPrim2Partial);
    S.writeU32(idOf(ObjPrimPartial, V.asPrim2Partial()));
    return;
  case ValueKind::Thunk:
    S.writeU8(ValThunk);
    S.writeU32(idOfThunk(V.asThunk()));
    return;
  case ValueKind::CompiledClosure:
    S.writeU8(ValCompiledClosure);
    S.writeU32(idOf(ObjVMClosure, V.asCompiledClosure()));
    return;
  }
}

void ValueGraphWriter::writeValue(Value V) { encodeValue(Roots, V); }

void ValueGraphWriter::emit(const Pending &P) {
  Objects.writeU8(P.Kind);
  switch (P.Kind) {
  case ObjStr: {
    Objects.writeString(*static_cast<const std::string *>(P.Ptr));
    return;
  }
  case ObjCell: {
    const Cell *C = static_cast<const Cell *>(P.Ptr);
    encodeValue(Objects, C->Head);
    encodeValue(Objects, C->Tail);
    return;
  }
  case ObjClosure: {
    const Closure *C = static_cast<const Closure *>(P.Ptr);
    encodeExprRef(Objects, C->L);
    Objects.writeU8(C->FEnv ? EnvFlat : EnvNone);
    Objects.writeU32(idOfEnvFrame(C->FEnv));
    return;
  }
  case ObjThunk: {
    const Thunk *T = static_cast<const Thunk *>(P.Ptr);
    encodeExprRef(Objects, T->E);
    Objects.writeU32(0); // Reserved: the named-chain env, always absent.
    Objects.writeU32(idOfEnvFrame(T->FEnv));
    Objects.writeU8(static_cast<uint8_t>(T->St));
    encodeValue(Objects, T->Memo);
    return;
  }
  case ObjPrimPartial: {
    const PrimPartial *PP = static_cast<const PrimPartial *>(P.Ptr);
    Objects.writeU8(static_cast<uint8_t>(PP->Op));
    encodeValue(Objects, PP->First);
    return;
  }
  case ObjEnvNode: {
    const EnvNode *N = static_cast<const EnvNode *>(P.Ptr);
    Objects.writeString(N->Name.str());
    encodeValue(Objects, N->Val);
    Objects.writeU32(idOfEnvNode(N->Parent));
    return;
  }
  case ObjEnvFrame: {
    const EnvFrame *F = static_cast<const EnvFrame *>(P.Ptr);
    const FrameShape *S = frameShape(F, Shapes);
    Objects.writeU32(S->Id);
    Objects.writeU32(idOfEnvFrame(F->parent()));
    Objects.writeU32(S->numSlots());
    for (uint32_t I = 0; I < S->numSlots(); ++I)
      encodeValue(Objects, F->slots()[I]);
    return;
  }
  case ObjVMClosure: {
    const VMClosure *C = static_cast<const VMClosure *>(P.Ptr);
    Objects.writeU32(C->Block);
    Objects.writeU32(idOfEnvNode(C->Env));
    return;
  }
  }
}

void ValueGraphWriter::finish(Serializer &Out) {
  while (!Worklist.empty()) {
    Pending P = Worklist.front();
    Worklist.pop_front();
    emit(P);
  }
  Out.writeU32(NumObjects);
  Out.writeBytes(Objects.bytes().data(), Objects.size());
  Out.writeBytes(Roots.bytes().data(), Roots.size());
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

ValueGraphReader::EncValue ValueGraphReader::parseValue() {
  EncValue E;
  E.Kind = D.readU8();
  switch (E.Kind) {
  case ValUnit:
  case ValNil:
    break;
  case ValInt:
    E.Int = D.readI64();
    break;
  case ValBool:
  case ValPrim1:
  case ValPrim2:
    E.Byte = D.readU8();
    break;
  case ValStr:
  case ValCell:
  case ValClosure:
  case ValPrim2Partial:
  case ValThunk:
  case ValCompiledClosure:
    E.Id = D.readU32();
    break;
  default:
    D.fail("unknown value encoding tag in checkpoint");
  }
  return E;
}

void *ValueGraphReader::objAt(uint32_t Id, uint8_t WantKind) {
  if (Id == 0)
    return nullptr;
  if (Id > Recs.size()) {
    D.fail("object id out of range in checkpoint");
    return nullptr;
  }
  Rec &R = Recs[Id - 1];
  if (R.Kind != WantKind) {
    D.fail("object id refers to the wrong object kind in checkpoint");
    return nullptr;
  }
  return R.Obj;
}

const Expr *ValueGraphReader::exprAt(uint32_t Id) {
  if (Id == 0)
    return nullptr;
  if (!Exprs) {
    D.fail("checkpoint references syntax but no program tree was supplied");
    return nullptr;
  }
  const Expr *E = Exprs->exprAt(Id);
  if (!E)
    D.fail("expression id out of range in checkpoint");
  return E;
}

Value ValueGraphReader::decode(const EncValue &E) {
  switch (E.Kind) {
  case ValUnit:
    return Value::mkUnit();
  case ValInt:
    return Value::mkInt(E.Int, A);
  case ValBool:
    return Value::mkBool(E.Byte != 0);
  case ValStr: {
    void *S = objAt(E.Id, ObjStr);
    if (!S) {
      D.fail("string value with null object id in checkpoint");
      return Value();
    }
    return Value::mkStr(static_cast<const std::string *>(S));
  }
  case ValNil:
    return Value::mkNil();
  case ValCell: {
    void *C = objAt(E.Id, ObjCell);
    if (!C) {
      D.fail("cell value with null object id in checkpoint");
      return Value();
    }
    return Value::mkCell(static_cast<Cell *>(C));
  }
  case ValClosure: {
    void *C = objAt(E.Id, ObjClosure);
    if (!C) {
      D.fail("closure value with null object id in checkpoint");
      return Value();
    }
    return Value::mkClosure(static_cast<Closure *>(C));
  }
  case ValPrim1:
    if (E.Byte > kMaxPrim1) {
      D.fail("unary primitive opcode out of range in checkpoint");
      return Value();
    }
    return Value::mkPrim1(static_cast<Prim1Op>(E.Byte));
  case ValPrim2:
    if (E.Byte > kMaxPrim2) {
      D.fail("binary primitive opcode out of range in checkpoint");
      return Value();
    }
    return Value::mkPrim2(static_cast<Prim2Op>(E.Byte));
  case ValPrim2Partial: {
    void *PP = objAt(E.Id, ObjPrimPartial);
    if (!PP) {
      D.fail("partial-primitive value with null object id in checkpoint");
      return Value();
    }
    return Value::mkPrim2Partial(static_cast<PrimPartial *>(PP));
  }
  case ValThunk: {
    void *T = objAt(E.Id, ObjThunk);
    if (!T) {
      D.fail("thunk value with null object id in checkpoint");
      return Value();
    }
    return Value::mkThunk(static_cast<Thunk *>(T));
  }
  case ValCompiledClosure: {
    void *C = objAt(E.Id, ObjVMClosure);
    if (!C) {
      D.fail("compiled-closure value with null object id in checkpoint");
      return Value();
    }
    return Value::mkCompiledClosure(static_cast<VMClosure *>(C));
  }
  }
  return Value();
}

bool ValueGraphReader::readObjects() {
  uint32_t Count = D.readU32();
  if (Count > D.remaining()) { // every record is at least one byte
    D.fail("checkpoint object count exceeds payload size");
    return false;
  }
  Recs.resize(Count);

  // Pass 1: parse every record. References stay encoded as ids.
  for (Rec &R : Recs) {
    R.Kind = D.readU8();
    switch (R.Kind) {
    case ObjStr:
      R.Str = D.readString();
      break;
    case ObjCell:
      R.V1 = parseValue();
      R.V2 = parseValue();
      break;
    case ObjClosure:
      R.A = D.readU32();
      R.Byte = D.readU8();
      R.B = D.readU32();
      break;
    case ObjThunk:
      R.A = D.readU32();
      R.B = D.readU32();
      R.C = D.readU32();
      R.Byte = D.readU8();
      R.V1 = parseValue();
      break;
    case ObjPrimPartial:
      R.Byte = D.readU8();
      R.V1 = parseValue();
      break;
    case ObjEnvNode:
      R.Str = D.readString();
      R.V1 = parseValue();
      R.B = D.readU32();
      break;
    case ObjEnvFrame: {
      R.A = D.readU32();
      R.B = D.readU32();
      R.C = D.readU32();
      if (R.C > D.remaining()) {
        D.fail("frame slot count exceeds payload size in checkpoint");
        return false;
      }
      R.Slots.resize(R.C);
      for (EncValue &E : R.Slots)
        E = parseValue();
      break;
    }
    case ObjVMClosure:
      R.A = D.readU32();
      R.B = D.readU32();
      break;
    default:
      D.fail("unknown object kind in checkpoint");
    }
    if (!D.ok())
      return false;
  }

  // Pass 2: allocate raw storage for every object (cycles and forward
  // references need every pointer to exist before any record is filled).
  for (Rec &R : Recs) {
    switch (R.Kind) {
    case ObjStr:
      Strings.push_back(std::move(R.Str));
      R.Obj = &Strings.back();
      break;
    case ObjCell:
      R.Obj = A.allocate(sizeof(Cell), alignof(Cell));
      break;
    case ObjClosure:
      R.Obj = A.allocate(sizeof(Closure), alignof(Closure));
      break;
    case ObjThunk:
      R.Obj = A.allocate(sizeof(Thunk), alignof(Thunk));
      break;
    case ObjPrimPartial:
      R.Obj = A.allocate(sizeof(PrimPartial), alignof(PrimPartial));
      break;
    case ObjEnvNode:
      R.Obj = A.allocate(sizeof(EnvNode), alignof(EnvNode));
      break;
    case ObjEnvFrame: {
      if (!Shapes || R.A >= NumShapes) {
        D.fail("frame shape id out of range in checkpoint");
        return false;
      }
      if (Shapes[R.A]->numSlots() != R.C) {
        D.fail("frame slot count disagrees with the resolved shape");
        return false;
      }
      R.Obj = A.allocate(sizeof(EnvFrame) + R.C * sizeof(Value),
                         alignof(EnvFrame));
      break;
    }
    case ObjVMClosure:
      R.Obj = A.allocate(sizeof(VMClosure), alignof(VMClosure));
      break;
    }
  }

  // Pass 3: construct each object with its references resolved.
  for (Rec &R : Recs) {
    switch (R.Kind) {
    case ObjStr:
      break;
    case ObjCell:
      new (R.Obj) Cell{decode(R.V1), decode(R.V2)};
      break;
    case ObjClosure: {
      const LamExpr *L = dyn_cast<LamExpr>(exprAt(R.A));
      if (!L) {
        D.fail("closure body id is not a lambda in checkpoint");
        return false;
      }
      if (R.Byte != EnvFlat && R.Byte != EnvNone) {
        D.fail("closure environment kind out of range in checkpoint");
        return false;
      }
      new (R.Obj) Closure(L, static_cast<EnvFrame *>(objAt(R.B, ObjEnvFrame)));
      break;
    }
    case ObjThunk: {
      const Expr *E = exprAt(R.A);
      if (!E) {
        D.fail("thunk expression id is null in checkpoint");
        return false;
      }
      if (R.Byte > static_cast<uint8_t>(Thunk::State::Forced)) {
        D.fail("thunk state out of range in checkpoint");
        return false;
      }
      if (R.B != 0) {
        D.fail("thunk environment out of range in checkpoint");
        return false;
      }
      new (R.Obj) Thunk{E, nullptr, static_cast<Thunk::State>(R.Byte),
                        decode(R.V1),
                        static_cast<EnvFrame *>(objAt(R.C, ObjEnvFrame))};
      break;
    }
    case ObjPrimPartial: {
      if (R.Byte > kMaxPrim2) {
        D.fail("partial-primitive opcode out of range in checkpoint");
        return false;
      }
      new (R.Obj) PrimPartial{static_cast<Prim2Op>(R.Byte), decode(R.V1)};
      break;
    }
    case ObjEnvNode:
      new (R.Obj) EnvNode{Symbol::intern(R.Str), decode(R.V1),
                          static_cast<EnvNode *>(objAt(R.B, ObjEnvNode))};
      break;
    case ObjEnvFrame: {
      EnvFrame *F = new (R.Obj)
          EnvFrame(Shapes[R.A], static_cast<EnvFrame *>(objAt(R.B, ObjEnvFrame)));
      Value *S = F->slots();
      for (uint32_t I = 0; I < R.C; ++I)
        new (S + I) Value(decode(R.Slots[I]));
      break;
    }
    case ObjVMClosure:
      new (R.Obj)
          VMClosure{R.A, static_cast<EnvNode *>(objAt(R.B, ObjEnvNode))};
      break;
    }
    if (!D.ok())
      return false;
  }
  return D.ok();
}

Value ValueGraphReader::readValue() { return decode(parseValue()); }

EnvNode *ValueGraphReader::readEnvNodeRef() {
  return static_cast<EnvNode *>(objAt(D.readU32(), ObjEnvNode));
}
EnvFrame *ValueGraphReader::readEnvFrameRef() {
  return static_cast<EnvFrame *>(objAt(D.readU32(), ObjEnvFrame));
}
Thunk *ValueGraphReader::readThunkRef() {
  return static_cast<Thunk *>(objAt(D.readU32(), ObjThunk));
}
const Expr *ValueGraphReader::readExprRef() { return exprAt(D.readU32()); }
