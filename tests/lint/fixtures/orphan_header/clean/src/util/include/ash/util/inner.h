// Fixture: included by used_too.h, which has a caller of its own.
#pragma once
