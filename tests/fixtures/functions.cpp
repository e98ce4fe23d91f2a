// Function bodies for the DIE walker: free functions with parameters,
// locals and nested blocks, a class whose member functions are declared and
// defined in it, a lambda, and function-local structs that shadow a
// file-scope one. Only the file-scope types are layouts; every type defined
// in a function body (f's and Counter::get's Entry, the lambda's closure
// type) is left out.
//
// The static_asserts below are the layout oracle: generate.py reads the
// sizes and offsets from them, and the compiler has checked each one.
// Every direct member of each file-scope type has an offsetof assert.

#include <stddef.h>

struct Entry {
    long a;
    long b;
};

class Counter {
public:
    int step;
    long total;

    Counter(int s) : step(s), total(0) {}

    long add(int n)
    {
        for (int i = 0; i < n; ++i) {
            long before = total;
            total = before + step;
        }
        return total;
    }

    int get() const
    {
        struct Entry {
            int value;
            int spare;
        };
        Entry e = {step, 0};
        return e.value + e.spare;
    }
};

struct Pair {
    Entry first;
    Counter *owner;
    short tag;
};

int f(int x)
{
    struct Entry {
        char c;
    };
    static_assert(sizeof(Entry) == 1, "f's Entry");
    Entry e = {static_cast<char>(x)};
    return e.c;
}

long sum(const Entry *items, int count, int bias)
{
    long acc = bias;
    for (int i = 0; i < count; ++i) {
        long a = items[i].a;
        {
            long b = items[i].b;
            acc += a * b;
        }
    }
    return acc;
}

int apply(int base)
{
    int scale = 3;
    auto twice = [scale](int v) { return v * scale * 2; };
    return twice(base) + f(base);
}

long use(Pair *p, int n)
{
    Counter local(n);
    p->owner = &local;
    long total = local.add(n) + local.get() + sum(&p->first, 1, p->tag);
    p->owner = 0;
    return total + apply(n);
}

static_assert(sizeof(Entry) == 16, "Entry");
static_assert(offsetof(Entry, a) == 0, "Entry.a");
static_assert(offsetof(Entry, b) == 8, "Entry.b");
static_assert(sizeof(Counter) == 16, "Counter");
static_assert(offsetof(Counter, step) == 0, "Counter.step");
static_assert(offsetof(Counter, total) == 8, "Counter.total");
static_assert(sizeof(Pair) == 32, "Pair");
static_assert(offsetof(Pair, first) == 0, "Pair.first");
static_assert(offsetof(Pair, owner) == 16, "Pair.owner");
static_assert(offsetof(Pair, tag) == 24, "Pair.tag");
